"""The package loads its names on first use, and each command loads only what it runs."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import geoseq

# every name ``geoseq`` exports, by the submodule that defines it
EXPORTED = {
    "geometric": [
        "GEO_IDENTITY", "GEO_ZERO", "GeoRangeError", "GeoScalar", "GeoSequence",
        "from_log", "gabs", "gadd", "gmul", "gscale", "gsub", "gsum", "to_log",
    ],
    "fibonacci": [
        "FibonacciCache", "cassini", "difference_entry", "difference_transform",
        "difference_transform_log", "fib", "fib_ratio", "fib_inverse_ratio",
        "kernel_log_sequence",
    ],
    "orlicz": ["DegenerateOrliczError", "OrliczFunction", "ScaleSolverError"],
    "orlicz_checks": [
        "Delta2Report", "delta2_constant", "luxemburg_norm",
    ],
    "summability": [
        "Exponents", "LambdaSequence", "ParanormResult", "SpaceSpec", "Tolerances",
        "modular_window", "paranorm", "vp_mean", "window_trace", "windowed_logs",
    ],
    "membership": [
        "BOUNDED", "CONVERGING", "DIVERGING", "INCONCLUSIVE", "MembershipReport",
        "classify_membership",
    ],
    "statconv": ["DensityTrace", "modular_density_bound", "stat_converges", "stat_density"],
    "harness": [
        "MemberSample", "SuiteReport", "TrialConfig", "check_delta2_inclusion",
        "check_exponent_inclusion", "check_linear_combination", "check_solidity",
        "generate_member", "run_suite",
    ],
    "fileio": [
        "InputError", "RunConfig", "emit_report", "load_config", "parse_sequence_file",
        "write_sequence_file",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]

# modules no analyze or paranorm command needs
HEAVY = ["geoseq.harness", "geoseq.statconv", "statistics", "logging", "fractions"]


def test_names_are_counted():
    assert len(NAMES) == 63 and len({name for _, name in NAMES}) == 63


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_submodules_object(module, name):
    assert getattr(geoseq, name) is getattr(importlib.import_module(f"geoseq.{module}"), name)


def test_all_lists_exactly_the_names():
    assert sorted(geoseq.__all__) == sorted(name for _, name in NAMES)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from geoseq import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"geoseq.{module}"), name)


def test_dir_lists_every_name():
    listed = dir(geoseq)
    assert all(name in listed for _, name in NAMES)
    assert all(module in listed for module in EXPORTED)


def test_submodules_are_attributes():
    for module in EXPORTED:
        assert getattr(geoseq, module) is importlib.import_module(f"geoseq.{module}")


# (a module names first moved out of, their home, the names bench/tracing.py
# still imports from the old module, moved names it no longer serves)
OLD_HOMES = [
    ("orlicz", "orlicz_checks", ["delta2_constant", "small_argument_threshold"],
     ["luxemburg_norm", "Delta2Report"]),
    ("summability", "membership", ["CONVERGING", "classify_membership"],
     ["MembershipReport", "BOUNDED", "INCONCLUSIVE"]),
]


@pytest.mark.parametrize("old, home, served, gone", OLD_HOMES, ids=["orlicz", "summability"])
def test_old_home_serves_only_the_benchmarks_names(old, home, served, gone):
    module = importlib.import_module(f"geoseq.{old}")
    for name in served:
        assert getattr(module, name) is getattr(importlib.import_module(f"geoseq.{home}"), name)
    for name in gone:
        with pytest.raises(AttributeError, match=f"'geoseq.{old}' has no attribute '{name}'"):
            getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        geoseq.frobnicate
    assert not hasattr(geoseq, "cli_main")


def _loaded_after(step, tmp_path):
    """The modules of HEAVY a fresh interpreter loads for ``step``.

    ``step`` is "import" (only ``import geoseq.cli``) or a CLI command run
    in process by ``geoseq.cli.main``.  Modules loaded before geoseq (by
    ``site``, say) do not count.
    """
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"domain": "log", "values": [0.3, -0.2] * 30}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lambda": {"kind": "half"},
        "orlicz": {"kind": "power", "p": 2},
        "variant": "zero" if step == "paranorm" else "limit",
        "trials": 2,
    }))
    out = ["--out", str(tmp_path / "report")]
    argv = {
        "import": None,
        "analyze": ["analyze", "--in", str(seq), "--config", str(cfg), *out],
        "paranorm": ["paranorm", "--in", str(seq), "--config", str(cfg), *out],
        "verify": ["verify", "--config", str(cfg), *out],
    }[step]
    script = textwrap.dedent(f"""
        import json, sys
        before = set(sys.modules)
        import geoseq.cli
        argv = {argv!r}
        if argv is not None and geoseq.cli.main(argv) != 0:
            sys.exit("command failed")
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules and m not in before]))
    """)
    src = str(Path(geoseq.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


@pytest.mark.parametrize("step", ["import", "analyze", "paranorm"])
def test_command_loads_no_heavy_module(step, tmp_path):
    assert _loaded_after(step, tmp_path) == set()


def test_verify_loads_the_harness(tmp_path):
    assert "geoseq.harness" in _loaded_after("verify", tmp_path)


# what only verify and the tests run, and the membership verdicts, by name
VERIFY_ONLY = {
    "_GRID", "Delta2Report", "delta2_constant", "small_argument_threshold", "luxemburg_norm",
    "suite_report_dict",
}
MEMBERSHIP = {
    "CONVERGING", "MembershipReport", "classify_membership", "_decide_vanishing",
    "_estimate_limit", "_median", "_short_truncation", "_slope", "_tail_slope",
    "_tail_verdict",
}
POWER = {"kind": "power", "p": 2}
TABLE = {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1, 1], [2, 3.5], [4, 10]]}


def _footprint(argv, orlicz, tmp_path):
    """(modules, names): the modules a fresh interpreter loads for the CLI
    command ``argv`` after ``site``, and the names the geoseq modules among
    them define (their ``vars``, so no module ``__getattr__`` runs)."""
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"domain": "log", "values": [0.3, -0.2] * 30}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lambda": {"kind": "half"}, "orlicz": orlicz, "transform": "identity",
        "variant": "zero" if argv == "paranorm" else "limit",
    }))
    report = str(tmp_path / "report")
    args = {
        "fib": ["fib", "--n", "3"],
        "transform": ["transform", "--in", str(seq), "--out", report, "--domain", "geo"],
    }.get(argv, [argv, "--in", str(seq), "--config", str(cfg), "--out", report])
    script = textwrap.dedent(f"""
        import json, sys
        before = set(sys.modules)
        import geoseq.cli
        if geoseq.cli.main({args!r}) != 0:
            sys.exit("command failed")
        loaded = [m for m in sys.modules if m not in before]
        names = [n for m in loaded if m.startswith("geoseq") for n in vars(sys.modules[m])]
        print(json.dumps([loaded, names]))
    """)
    src = str(Path(geoseq.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    modules, names = json.loads(run.stdout.splitlines()[-1])
    return set(modules), set(names)


@pytest.mark.parametrize("command, orlicz, modules, names", [
    ("fib", None, {"geoseq.fileio", "geoseq.summability", "geoseq.orlicz", "dataclasses"},
     set()),
    # the file code without the run configurations and reports it never reads
    ("transform", None,
     {"geoseq.summability", "geoseq.orlicz", "geoseq.membership", "dataclasses"}, set()),
    ("paranorm", POWER,
     {"geoseq.fibonacci", "geoseq.membership", "geoseq.orlicz_checks", "fractions"},
     VERIFY_ONLY | MEMBERSHIP),
    ("paranorm", TABLE,
     {"geoseq.fibonacci", "geoseq.membership", "geoseq.orlicz_checks", "fractions"},
     VERIFY_ONLY | MEMBERSHIP),
    ("analyze", POWER, {"geoseq.orlicz_checks"}, VERIFY_ONLY),
], ids=["fib", "transform", "paranorm", "paranorm-table", "analyze"])
def test_command_compiles_only_what_it_runs(command, orlicz, modules, names, tmp_path):
    loaded, defined = _footprint(command, orlicz, tmp_path)
    assert loaded & modules == set()
    assert defined & names == set()
