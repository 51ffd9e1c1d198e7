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

# every name ``geoseq`` exported when it imported its submodules eagerly
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
    "orlicz": [
        "Delta2Report", "DegenerateOrliczError", "OrliczFunction", "ScaleSolverError",
        "delta2_constant", "luxemburg_norm", "solve_scale", "validate_on_grid",
    ],
    "summability": [
        "BOUNDED", "CONVERGING", "DIVERGING", "INCONCLUSIVE", "Exponents",
        "LambdaSequence", "MembershipReport", "ParanormResult", "SpaceSpec",
        "Tolerances", "classify_membership", "modular_window", "paranorm", "vp_mean",
        "window", "window_trace", "windowed_logs",
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
    assert len(NAMES) == 66 and len({name for _, name in NAMES}) == 66


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
