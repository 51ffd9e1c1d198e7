"""Sequence/config files, report emission, CLI commands and exit codes."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geoseq
from geoseq import (
    GEO_ZERO,
    GeoScalar,
    InputError,
    LambdaSequence,
    ScaleSolverError,
    TrialConfig,
    emit_report,
    from_log,
    load_config,
    parse_sequence_file,
    run_suite,
    stat_converges,
    stat_density,
    write_sequence_file,
)
from geoseq import fibonacci
from geoseq.cli import main
from geoseq.fileio import config_from_dict, density_report_dict, render_json
from geoseq.membership import classify_membership
from geoseq.summability import paranorm


def _env_with_package_path():
    # the child interpreter imports geoseq from wherever this process did
    src = str(Path(geoseq.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    return write(
        tmp_path / "cfg.json",
        json.dumps(
            {
                "lambda": {"kind": "half"},
                "orlicz": {"kind": "power", "p": 2},
                "exponents": {"kind": "constant", "value": 1.0},
                "variant": "limit",
                "transform": "fhat",
                "rho": 1.0,
                "seed": 42,
                "trials": 5,
            }
        ),
    )


@pytest.fixture
def constant_sequence_path(tmp_path):
    return write(
        tmp_path / "seq.json",
        json.dumps({"domain": "log", "values": [3.0] * 60}),
    )


class TestSequenceFiles:
    def test_log_domain_json(self, tmp_path):
        p = write(tmp_path / "a.json", '{"domain":"log","values":[0,0,0]}')
        x = parse_sequence_file(p)
        assert x.values == (1.0, 1.0, 1.0)

    def test_geometric_domain_json(self, tmp_path):
        p = write(
            tmp_path / "b.json",
            '{"domain":"geometric","values":[1.0,2.718281828,7.389056]}',
        )
        x = parse_sequence_file(p)
        assert x.logs == pytest.approx([0.0, 1.0, 2.0], abs=1e-6)

    def test_zero_value_error_names_index(self, tmp_path):
        p = write(tmp_path / "c.json", '{"domain":"geometric","values":[0.0,1.0]}')
        with pytest.raises(InputError, match="index 0"):
            parse_sequence_file(p)

    def test_malformed_json_reports_position(self, tmp_path):
        p = write(tmp_path / "d.json", '{"domain": "log", "values": [1,, 2]}')
        with pytest.raises(InputError, match="line 1"):
            parse_sequence_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            parse_sequence_file(tmp_path / "nope.json")

    def test_csv_value_header(self, tmp_path):
        p = write(tmp_path / "e.csv", "value\n1.0\n2.0\n")
        assert parse_sequence_file(p).values == (1.0, 2.0)

    def test_csv_log_header(self, tmp_path):
        p = write(tmp_path / "f.csv", "log_value\n0.5\n-0.5\n")
        assert parse_sequence_file(p).logs == (0.5, -0.5)

    def test_csv_bad_header(self, tmp_path):
        p = write(tmp_path / "g.csv", "values\n1.0\n")
        with pytest.raises(InputError, match="header"):
            parse_sequence_file(p)

    def test_csv_bad_number_reports_line(self, tmp_path):
        p = write(tmp_path / "h.csv", "value\n1.0\noops\n")
        with pytest.raises(InputError, match="line 3"):
            parse_sequence_file(p)

    def test_round_trip_to_last_digit(self, tmp_path):
        logs = [0.1 + 0.2, -1e-17, 3.141592653589793, 50.0, -49.99999999999999]
        x = from_log(logs)
        p = tmp_path / "rt.json"
        write_sequence_file(x, p, domain="log")
        assert parse_sequence_file(p).logs == tuple(logs)

    def test_geometric_round_trip_to_last_digit(self, tmp_path):
        x = from_log([0.25, -3.5, 1.75])
        p = tmp_path / "rt2.json"
        write_sequence_file(x, p, domain="geometric")
        assert parse_sequence_file(p).values == x.values


class TestConfig:
    def test_defaults(self, tmp_path):
        p = write(tmp_path / "cfg.json", "{}")
        cfg = load_config(p)
        assert cfg.variant == "zero"
        assert cfg.transform == "fhat"
        assert cfg.lam.kind == "identity"
        assert cfg.trials == 100

    def test_full_document(self, config_path):
        cfg = load_config(config_path)
        assert cfg.lam.kind == "half"
        assert cfg.orlicz.p == 2.0
        assert cfg.variant == "limit"
        assert cfg.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown configuration keys"):
            config_from_dict({"lambda": {"kind": "half"}, "oops": 1})

    def test_invalid_nested_value_rejected(self):
        with pytest.raises(InputError):
            config_from_dict({"orlicz": {"kind": "power", "p": 0.5}})
        with pytest.raises(InputError):
            config_from_dict({"rho": -1.0})
        with pytest.raises(InputError):
            config_from_dict({"lambda": {"kind": "custom", "values": [2, 3]}})

    def test_tolerance_overrides(self):
        cfg = config_from_dict({"tolerances": {"tol": 0.5, "window_count": 4}})
        assert cfg.tolerances.tol == 0.5
        assert cfg.tolerances.window_count == 4
        assert cfg.tolerances.bound_cap == 1e9


class TestEmission:
    def test_json_floats_survive_parsing(self):
        x = from_log([0.1, 0.2, 0.30000000000000004] * 20)
        rep = classify_membership(
            x,
            load_spec_half(),
        )
        payload = emit_report(rep, "json")
        doc = json.loads(payload)
        assert doc["kind"] == "membership"
        assert doc["trace"]["S_n"] == rep.window_values

    def test_membership_text_has_verdict_and_trace(self):
        x = from_log([0.0] * 60)
        rep = classify_membership(x, load_spec_half())
        text = emit_report(rep, "text").decode()
        assert text.startswith("verdict: converging")
        assert "n lambda_n S_n" in text

    def test_membership_csv_schema(self):
        x = from_log([0.0] * 60)
        rep = classify_membership(x, load_spec_half())
        rows = emit_report(rep, "csv").decode().splitlines()
        assert rows[0] == "n,lambda_n,S_n,d_n"
        assert len(rows) == 1 + len(rep.window_values)

    def test_density_csv_schema(self):
        x = from_log([0.0] * 30)
        trace = stat_density(
            x, LambdaSequence.identity(), GEO_ZERO, GeoScalar.from_log(1.0)
        )
        doc = density_report_dict(trace, stat_converges(trace))
        rows = emit_report(doc, "csv").decode().splitlines()
        assert rows[0] == "n,lambda_n,S_n,d_n"
        n, lam_n, s_n, d_n = rows[1].split(",")
        assert (n, s_n) == ("1", "")  # the modular column stays empty here
        assert float(d_n) == 0.0

    def test_paranorm_report(self):
        res = paranorm(from_log([1.0] + [0.0] * 39), load_spec_identity())
        doc = json.loads(emit_report(res, "json"))
        assert doc["rho_star"] == pytest.approx(1.0, abs=1e-9)
        text = emit_report(res, "text").decode()
        assert "rho_star" in text

    def test_suite_csv_one_row_per_check_per_trial(self):
        # 47 windows: enough for stat_consistency, which skips below 40
        rep = run_suite(TrialConfig(seed=3, trials=4, length=48))
        rows = emit_report(rep, "csv").decode().splitlines()
        assert rows[0] == "check,trial,passed,worst_violation"
        assert len(rows) == 1 + 6 * 4

    def test_empty_suite_header_only(self):
        rep = run_suite(TrialConfig(seed=3, trials=0, length=40))
        rows = emit_report(rep, "csv").decode().splitlines()
        assert rows == ["check,trial,passed,worst_violation"]

    def test_unknown_format_rejected(self):
        rep = run_suite(TrialConfig(seed=3, trials=0, length=40))
        with pytest.raises(InputError):
            emit_report(rep, "xml")

    def test_csv_reader_gives_back_every_field(self):
        x = from_log([0.1, -2.5, 0.30000000000000004] * 20)
        membership = classify_membership(x, load_spec_half())
        trace = stat_density(
            x, LambdaSequence.half(), GEO_ZERO, GeoScalar.from_log(1.0)
        )
        density = density_report_dict(trace, stat_converges(trace))
        suite = run_suite(TrialConfig(seed=3, trials=2, length=40))
        suite = dataclasses.replace(
            suite, rows=[("solidity", 7, False, math.inf)] + suite.rows
        )
        para = paranorm(from_log([1.0] + [0.0] * 39), load_spec_identity())

        def read(report):
            return list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))

        rows = read(membership)
        assert rows[0] == ["n", "lambda_n", "S_n", "d_n"]
        assert [(int(n), float(lam), float(s), d) for n, lam, s, d in rows[1:]] == [
            (n, float(lam), s, "")
            for n, (lam, s) in enumerate(
                zip(membership.lambda_values, membership.window_values), 1
            )
        ]
        rows = read(density)
        assert rows[0] == ["n", "lambda_n", "S_n", "d_n"]
        assert [(int(n), float(lam), s, float(d)) for n, lam, s, d in rows[1:]] == [
            (n, float(lam), "", d)
            for n, (lam, d) in enumerate(zip(trace.lambda_values, trace.densities), 1)
        ]
        rows = read(suite)
        assert rows[0] == ["check", "trial", "passed", "worst_violation"]
        assert rows[1] == ["solidity", "7", "False", "inf"]
        assert [(c, int(t), p == "True", float(w)) for c, t, p, w in rows[1:]] == [
            tuple(r) for r in suite.rows
        ]
        rows = read(para)
        assert rows[0] == ["rho_star", "g", "g_geo_log"]
        assert [float(v) for v in rows[1]] == [para.rho_star, para.g, para.g_geo.log]
        assert len(rows) == 2

    def test_render_json_17_digits(self):
        s = render_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in s
        assert json.loads(s)["v"] == 1.0 / 3.0


def load_spec_half():
    return config_from_dict(
        {"lambda": {"kind": "half"}, "orlicz": {"kind": "power", "p": 2}}
    ).space_spec()


def load_spec_identity():
    return config_from_dict(
        {
            "lambda": {"kind": "identity"},
            "orlicz": {"kind": "power", "p": 1},
            "transform": "identity",
        }
    ).space_spec()


class TestCli:
    def test_fib_command(self, capsys):
        assert main(["fib", "--n", "6", "--check-identities"]) == 0
        out = capsys.readouterr().out
        assert "f(6) = 13" in out
        assert "product identity" in out
        assert "ok" in out

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_fib_prints_past_the_int_to_str_digit_limit(self, capsys):
        # f(3100) has 648 digits; the limit is lowered to 640 to keep the test small
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["fib", "--n", "3100"])
            assert sys.get_int_max_str_digits() == 640  # restored after printing
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3101
        assert lines[-1] == f"f(3100) = {fibonacci.fib(3100)}"

    def test_transform_round_trip(self, tmp_path, capsys):
        seq = write(tmp_path / "s.json", '{"domain":"log","values":[1,1,1,1]}')
        out = tmp_path / "t.json"
        assert main(["transform", "--in", seq, "--out", str(out)]) == 0
        y = parse_sequence_file(out)
        assert y.logs == pytest.approx([1.0, -1.5, -5.0 / 6.0, -16.0 / 15.0])

    def test_transform_geometric_output(self, tmp_path):
        seq = write(tmp_path / "s.json", '{"domain":"log","values":[0,0,0]}')
        out = tmp_path / "t.json"
        assert main(
            ["transform", "--in", seq, "--out", str(out), "--domain", "geo"]
        ) == 0
        assert parse_sequence_file(out).values == (1.0, 1.0, 1.0)

    def test_transform_range_abort(self, tmp_path, capsys):
        seq = write(tmp_path / "s.json", '{"domain":"log","values":[600,600,600]}')
        out = tmp_path / "t.json"
        code = main(["transform", "--in", seq, "--out", str(out), "--domain", "geo"])
        assert code == 4
        assert "range" in capsys.readouterr().err

    def test_analyze(self, tmp_path, capsys, config_path, constant_sequence_path):
        assert main(
            ["analyze", "--in", constant_sequence_path, "--config", config_path]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: converging" in out

    def test_analyze_json_format(self, tmp_path, config_path, constant_sequence_path):
        out = tmp_path / "r.json"
        assert main(
            [
                "analyze", "--in", constant_sequence_path, "--config", config_path,
                "--format", "json", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "converging"
        assert doc["limit_estimate"]["log"] == pytest.approx(-3.0, abs=1e-3)

    def test_analyze_limit_with_overflowing_tail_range(self, tmp_path):
        # the final window spans 1e308 - (-1e308) = inf: the centre search
        # has no finite bracket and ends at its midpoint, the tail median 0
        seq = write(
            tmp_path / "s.json",
            json.dumps({"domain": "log", "values": [0.0] * 30 + [1e308] * 5 + [-1e308] * 5}),
        )
        cfg = write(
            tmp_path / "c.json",
            json.dumps(
                {
                    "lambda": {"kind": "identity"},
                    "orlicz": {"kind": "power", "p": 2},
                    "variant": "limit",
                    "transform": "identity",
                }
            ),
        )
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", "analyze", "--in", seq, "--config", cfg,
             "--format", "json", "--out", str(out)],
            env=_env_with_package_path(),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["limit_estimate"]["log"] == 0

    def test_paranorm_command(self, tmp_path, capsys, config_path):
        seq = write(
            tmp_path / "z.json", json.dumps({"domain": "log", "values": [0.0] * 40})
        )
        cfg = write(
            tmp_path / "c2.json",
            json.dumps({"lambda": {"kind": "half"}, "variant": "zero"}),
        )
        assert main(["paranorm", "--in", seq, "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "g: 0" in out

    def test_stat_command(self, tmp_path, capsys, config_path, constant_sequence_path):
        code = main(
            [
                "stat", "--in", constant_sequence_path, "--config", config_path,
                "--epsilon", "1.2", "--ell", str(math.exp(-3.0)),
            ]
        )
        assert code == 0
        assert "verdict: converging" in capsys.readouterr().out

    def test_stat_epsilon_validation(self, config_path, constant_sequence_path, capsys):
        code = main(
            [
                "stat", "--in", constant_sequence_path, "--config", config_path,
                "--epsilon", "0.9", "--ell", "1.0",
            ]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_verify_success_and_determinism(self, tmp_path, config_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                [
                    "verify", "--config", config_path, "--seed", "42",
                    "--trials", "8", "--format", "json", "--out", str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_failure_exit_code(self, tmp_path):
        # an unattainable tolerance forces the consistency check to fail
        cfg = write(
            tmp_path / "bad.json",
            json.dumps(
                {
                    "lambda": {"kind": "half"},
                    "orlicz": {"kind": "power", "p": 2},
                    "tolerances": {"tol": 0.0},
                }
            ),
        )
        code = main(["verify", "--config", cfg, "--trials", "3"])
        assert code == 3

    def test_verify_custom_lambda_shorter_than_length(self, tmp_path):
        lam = {"kind": "custom", "values": [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]}
        cfg = write(tmp_path / "c.json", json.dumps({"lambda": lam}))
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", "verify", "--config", cfg,
             "--trials", "1", "--length", "11"],
            capture_output=True, text=True, env=_env_with_package_path(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "geoseq: input error: custom lambda of length 10 is shorter than"
            " the suite length 11\n"
        )

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fib"])  # missing required --n
        assert exc.value.code == 1

    def test_unknown_command_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_input_error_exit_code(self, tmp_path, capsys):
        code = main(
            ["analyze", "--in", str(tmp_path / "missing.json"), "--config",
             str(tmp_path / "missing_cfg.json")]
        )
        assert code == 2

    def test_input_error_message(self, tmp_path, capsys):
        # InputError is a ValueError: one clause prints both
        assert main(["fib", "--n", "-1"]) == 2
        assert capsys.readouterr().err == "geoseq: input error: --n must be >= 0\n"

    @staticmethod
    def stderr_of(argv, level):
        env = dict(_env_with_package_path(), GEOSEQ_LOG_LEVEL=level)
        proc = subprocess.run([sys.executable, "-m", "geoseq", *argv],
                              capture_output=True, env=env)
        assert proc.returncode == 0
        return proc.stderr

    def test_unknown_log_level_warns_on_stderr(self):
        assert self.stderr_of(["fib", "--n", "1"], "bogus") == (
            b"WARNING:geoseq.cli:unknown GEOSEQ_LOG_LEVEL 'bogus'; using 'warn'\n"
        )

    @pytest.mark.parametrize("level, lines", [
        ("warn", 1), ("DEBUG", 1), ("error", 0), ("bogus", 2),
    ])
    def test_saturated_transform_warns_on_stderr(self, tmp_path, level, lines):
        seq = write(tmp_path / "s.json", '{"domain":"log","values":[0,800,0,800,1]}')
        argv = ["transform", "--in", seq, "--out", str(tmp_path / "t.json")]
        warnings = [
            b"WARNING:geoseq.cli:unknown GEOSEQ_LOG_LEVEL 'bogus'; using 'warn'\n",
            b"WARNING:geoseq.cli:transform left double range; value view saturated\n",
        ]
        assert self.stderr_of(argv, level) == b"".join(warnings[2 - lines:])

    def test_log_level_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GEOSEQ_LOG_LEVEL", "debug")
        assert main(["fib", "--n", "2"]) == 0

    @pytest.mark.parametrize(
        "points, command",
        [
            ([[0, 0], [1, 0.5], [2, 5], [3, 0.2], [4, 6]], "paranorm"),  # not convex
            ([[0, 0], [1, 0], [2, 1]], "verify"),  # M = 0 on (0, 1]
        ],
    )
    def test_invalid_table_is_input_error(self, tmp_path, capsys, points, command):
        cfg = write(
            tmp_path / "table.json",
            json.dumps(
                {
                    "lambda": {"kind": "identity"},
                    "orlicz": {"kind": "table", "points": points},
                    "transform": "identity",
                }
            ),
        )
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": [2.7] * 4}))
        argv = [command, "--config", cfg] + (["--in", seq] if command == "paranorm" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "table" in err
        assert "Traceback" not in err

    def test_convex_table_accepted(self):
        points = [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0], [2.0, 3.5], [4.0, 10.0]]
        cfg = config_from_dict({"orlicz": {"kind": "table", "points": points}})
        assert cfg.orlicz.kind == "table"

    def test_table_slopes_are_compared_exactly(self):
        # slopes 7/9 and 7/9 in exact arithmetic; as float quotients the second
        # is one ulp lower, so a float comparison would call M non-convex
        points = [[0.0, 0.0], [1 / 3, 0.25925925925925924], [2.2, 1.7111111111111112]]
        (t0, m0), (t1, m1), (t2, m2) = ((Fraction(t), Fraction(m)) for t, m in points)
        assert (m1 - m0) / (t1 - t0) == (m2 - m1) / (t2 - t1)
        assert (points[2][1] - points[1][1]) / (2.2 - 1 / 3) < points[1][1] / (1 / 3)
        cfg = config_from_dict({"orlicz": {"kind": "table", "points": points}})
        assert cfg.orlicz.points == tuple(map(tuple, points))
        # one ulp less at the last knot: the second slope is now lower, exactly
        points[2][1] = math.nextafter(points[2][1], 0.0)
        with pytest.raises(InputError, match=re.escape(
            "config: orlicz: table Orlicz function must be convex with M(t) > 0 for "
            "t > 0: segment slopes must be positive and non-decreasing, got "
            "[0.7777777777777778, 0.7777777777777777]"
        )):
            config_from_dict({"orlicz": {"kind": "table", "points": points}})

    def test_solver_invariant_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ScaleSolverError("constraint map increased with the scale")

        monkeypatch.setattr("geoseq.cli.paranorm", failing)
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": [1.0] * 4}))
        cfg = write(tmp_path / "c.json", json.dumps({"transform": "identity"}))
        assert main(["paranorm", "--in", seq, "--config", cfg]) == 4
        assert "numeric range abort" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "orlicz",
        [{"kind": "power", "p": 1}, {"kind": "power", "p": 2}, {"kind": "x_log1p"},
         {"kind": "exp_minus_one"}],
    )
    def test_paranorm_of_a_tiny_log_view(self, tmp_path, capsys, orlicz):
        # half windows: the largest window mean of |z| is 2e-300 (windows 2 and 4)
        values = [1e-300, 2e-300, 1e-300, 3e-300, 1e-300, 1e-300, 1e-300, 1e-300]
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": values}))
        cfg = write(
            tmp_path / "c.json",
            json.dumps({"lambda": {"kind": "half"}, "orlicz": orlicz, "transform": "identity"}),
        )
        assert main(["paranorm", "--in", seq, "--config", cfg, "--format", "json"]) == 0
        rho = json.loads(capsys.readouterr().out)["rho_star"]
        if orlicz["kind"] == "power" and orlicz["p"] == 1:
            assert rho == pytest.approx(2e-300, rel=1e-11)
        assert 1e-301 < rho < 1e-299

    def test_solver_out_of_probes_exits_4(self, tmp_path, capsys, monkeypatch):
        # three probes bracket the scale but cannot close it to rel_tol
        monkeypatch.setattr("geoseq.cli.paranorm", functools.partial(paranorm, max_iter=3))
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": [2.7] * 8}))
        cfg = write(tmp_path / "c.json", json.dumps({"transform": "identity"}))
        assert main(["paranorm", "--in", seq, "--config", cfg]) == 4
        assert "in 3 probes" in capsys.readouterr().err

    def test_transformed_row_out_of_range_exits_4(self, tmp_path, config_path):
        # a valid log-view whose difference transform overflows double range
        values = [1e308 if k % 2 == 0 else -1e308 for k in range(60)]
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": values}))
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", "analyze", "--in", seq, "--config", config_path],
            capture_output=True, text=True, env=_env_with_package_path(),
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "numeric range abort: transformed row 1 left double range" in proc.stderr

    BIG = str(10 ** 400)  # a JSON integer beyond double range

    @pytest.mark.parametrize("domain, values, index", [
        ("log", f"[{BIG}, 1.0]", 0),
        ("geometric", f"[1.0, 2.0, -{BIG}]", 2),
    ])
    def test_out_of_range_number_in_sequence_exits_2(self, tmp_path, domain, values, index):
        seq = write(tmp_path / "s.json", f'{{"domain": "{domain}", "values": {values}}}')
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", "transform", "--in", seq,
             "--out", str(tmp_path / "t.json")],
            capture_output=True, text=True, env=_env_with_package_path(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"geoseq: input error: {seq}: index {index}: number out of double range\n"
        )

    @pytest.mark.parametrize("doc, key", [
        (f'{{"rho": {BIG}}}', "rho"),
        (f'{{"orlicz": {{"kind": "power", "p": {BIG}}}}}', "orlicz"),
        (f'{{"exponents": {{"kind": "constant", "value": {BIG}}}}}', "exponents"),
        (f'{{"lambda": {{"kind": "custom", "values": [1, 2, {BIG}]}}}}', "lambda"),
        ('{"trials": Infinity}', "trials"),
        ('{"tolerances": {"window_count": Infinity}}', "tolerances"),
    ])
    def test_out_of_range_number_in_config_exits_2(
        self, tmp_path, constant_sequence_path, doc, key
    ):
        cfg = write(tmp_path / "c.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", "analyze", "--in", constant_sequence_path,
             "--config", cfg],
            capture_output=True, text=True, env=_env_with_package_path(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"geoseq: input error: {cfg}: {key}: ")

    @pytest.mark.parametrize("command", ["analyze", "paranorm", "stat", "verify"])
    @pytest.mark.parametrize("doc, key", [
        # a section that is not a JSON object
        ('{"lambda": "half"}', "lambda"),
        ('{"orlicz": "power"}', "orlicz"),
        ('{"exponents": 3}', "exponents"),
        ('{"tolerances": [1]}', "tolerances"),
        # tolerances out of range
        ('{"tolerances": {"window_count": 0}}', "tolerances"),
        ('{"tolerances": {"window_count": -3}}', "tolerances"),
        ('{"tolerances": {"tol": NaN}}', "tolerances"),
        ('{"tolerances": {"bound_cap": NaN}}', "tolerances"),
        # a parameter the section's kind does not take, or a missing one
        ('{"lambda": {"kind": "half", "values": [1]}}', "lambda"),
        ('{"orlicz": {"kind": "x_log1p", "p": 2}}', "orlicz"),
        ('{"exponents": {"kind": "constant", "value": 1, "c": 2}}', "exponents"),
        ('{"exponents": {"kind": "constant"}}', "exponents"),
        # NaN in a custom lambda, which the monotonicity checks let through
        ('{"lambda": {"kind": "custom", "values": [1, NaN, 2, 3]}}', "lambda"),
        # a bool, a string or a fraction where a number or an integer belongs
        ('{"rho": true}', "rho"),
        ('{"seed": "5"}', "seed"),
        ('{"trials": 2.7}', "trials"),
    ])
    def test_malformed_config_exits_2_naming_the_key(
        self, tmp_path, capsys, constant_sequence_path, doc, key, command
    ):
        cfg = write(tmp_path / "c.json", doc)
        args = [command, "--config", cfg]
        if command != "verify":
            args += ["--in", constant_sequence_path]
        if command == "stat":
            args += ["--epsilon", "2.0", "--ell", "1.5"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"geoseq: input error: {cfg}: {key}: ")

    @pytest.mark.parametrize("command", ["analyze", "paranorm", "stat", "verify"])
    @pytest.mark.parametrize("doc, where", [
        # bools and strings inside a section are not numbers either
        ('{"orlicz": {"kind": "power", "p": "2"}}', "orlicz: p: "),
        ('{"orlicz": {"kind": "power", "p": true}}', "orlicz: p: "),
        ('{"orlicz": {"kind": "table", "points": [[0, 0], [1, "1"]]}}',
         "orlicz: points[1][1]: "),
        ('{"tolerances": {"tol": "1e-3"}}', "tolerances: tol: "),
        ('{"exponents": {"kind": "constant", "value": "2"}}', "exponents: value: "),
        ('{"lambda": {"kind": "custom", "values": [true, 2, 3]}}', "lambda: values[0]: "),
        # a trial count below 1
        ('{"trials": 0}', "trials: "),
        ('{"trials": -1}', "trials: "),
        # JSON that json.loads refuses without a JSONDecodeError
        ('{"a":' * 200_000, ""),
        pytest.param(
            '{"seed": ' + "1" * 5000 + "}", "",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit"
            ),
        ),
    ], ids=["p-string", "p-bool", "knot-string", "tol-string", "value-string",
            "lambda-bool", "trials-0", "trials-negative", "nested", "long-integer"])
    def test_non_number_or_unreadable_config_exits_2_naming_the_file(
        self, tmp_path, capsys, constant_sequence_path, doc, where, command
    ):
        cfg = write(tmp_path / "c.json", doc)
        args = [command, "--config", cfg]
        if command != "verify":
            args += ["--in", constant_sequence_path]
        if command == "stat":
            args += ["--epsilon", "2.0", "--ell", "1.5"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"geoseq: input error: {cfg}: {where}")

    @pytest.mark.parametrize("command", ["transform", "analyze", "paranorm", "stat"])
    @pytest.mark.parametrize("text, reason", [
        ('{"domain": "log", "values": ' + "[" * 200_000, "JSON nested too deeply"),
        pytest.param(
            '{"domain": "log", "values": [' + "1" * 5000 + "]}", "JSON integer too long",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit"
            ),
        ),
    ], ids=["nested", "long-integer"])
    def test_unreadable_sequence_json_exits_2_naming_the_file(
        self, tmp_path, capsys, config_path, command, text, reason
    ):
        seq = write(tmp_path / "s.json", text)
        args = [command, "--in", seq]
        if command == "transform":
            args += ["--out", str(tmp_path / "t.json")]
        else:
            args += ["--config", config_path]
        if command == "stat":
            args += ["--epsilon", "2.0", "--ell", "1.5"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"geoseq: input error: {seq}: {reason}")

    def test_verify_needs_a_trial(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", "{}")
        assert main(["verify", "--config", cfg, "--trials", "0"]) == 2
        assert capsys.readouterr().err == "geoseq: input error: --trials must be >= 1\n"

    def test_transform_command_names_out_of_range_row(self, tmp_path, capsys):
        values = [1.0, 1.0, 1e308, -1e308, 1e308]
        seq = write(tmp_path / "s.json", json.dumps({"domain": "log", "values": values}))
        out = tmp_path / "t.json"
        assert main(["transform", "--in", seq, "--out", str(out)]) == 4
        assert "transformed row 3 left double range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transform", "paranorm"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_is_input_error(
        self, tmp_path, constant_sequence_path, command, target
    ):
        out = tmp_path / "missing" / "d" / "t.json" if target == "missing_dir" else tmp_path
        args = ["--in", constant_sequence_path, "--out", str(out)]
        if command == "paranorm":
            cfg = write(tmp_path / "c.json", json.dumps({"transform": "identity"}))
            args += ["--config", cfg]
        proc = subprocess.run(
            [sys.executable, "-m", "geoseq", command] + args,
            capture_output=True, text=True, env=_env_with_package_path(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"geoseq: input error: cannot write {out}: " in proc.stderr

    @pytest.mark.parametrize("command", ["fib", "analyze"])
    def test_closed_stdout_pipe_is_input_error(
        self, config_path, constant_sequence_path, command
    ):
        # the read end is closed before the child writes, so every write
        # to stdout fails with EPIPE
        args = ["fib", "--n", "3"] if command == "fib" else [
            "analyze", "--in", constant_sequence_path, "--config", config_path,
        ]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "geoseq"] + args,
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=_env_with_package_path(),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert "geoseq: input error: cannot write stdout: " in proc.stderr

    def test_module_entry_point(self, config_path, constant_sequence_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "geoseq",
                "analyze", "--in", constant_sequence_path, "--config", config_path,
            ],
            capture_output=True, text=True, env=_env_with_package_path(),
        )
        assert proc.returncode == 0
        assert "verdict: converging" in proc.stdout
