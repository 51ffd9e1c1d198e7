"""Property test of the CLI: generated inputs never crash it or leak NaN."""

import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from geoseq.cli import main

ORLICZ = [
    {"kind": "power", "p": 2.0},
    {"kind": "x_log1p"},
    {"kind": "exp_minus_one"},
    {"kind": "table", "points": [[0, 0], [0.5, 0.2], [1, 1], [2, 3.5], [4, 10]]},
]

# one malformed member each: a section that is not an object, a parameter
# the kind does not take or lacks, a value out of range or of the wrong type
MALFORMED = [
    {"lambda": "half"},
    {"lambda": {"kind": "sqrt", "values": [1, 2]}},
    {"lambda": {"values": [1, 2]}},
    {"orlicz": ["power", 2]},
    {"orlicz": {"kind": "exp_minus_one", "p": 1}},
    {"orlicz": {"kind": "table"}},
    {"orlicz": {"kind": "table", "points": [[0, 0], [1, 2], [2, 3]]}},
    {"exponents": 3},
    {"exponents": {"kind": "formula", "c": 1}},
    {"exponents": {"kind": "list", "values": [1, 2], "value": 1}},
    {"tolerances": None},
    {"tolerances": {"window_count": 0}},
    {"tolerances": {"window_count": 1.5}},
    {"tolerances": {"tol": -1}},
    {"tolerances": {"bound_cap": 0}},
    {"tolerances": {"step": 1}},
    {"rho": False},
    {"rho": "1"},
    {"seed": 1.5},
    {"trials": True},
]

# log-view magnitudes from the smallest subnormal to the edge of double range
magnitudes = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e-300, 1e300, 1e308)),
    st.floats(min_value=5e-324, max_value=1e308),
    st.floats(min_value=1e-3, max_value=1e3),
)
log_values = st.lists(
    st.builds(lambda m, s: s * m, magnitudes, st.sampled_from((1.0, -1.0))),
    min_size=1,
    max_size=64,
)


def _has_nan(obj) -> bool:
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, str):
        return obj.lower() == "nan"
    if isinstance(obj, dict):
        return any(map(_has_nan, obj.values()))
    if isinstance(obj, list):
        return any(map(_has_nan, obj))
    return False


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=log_values,
    orlicz=st.sampled_from(ORLICZ),
    lam=st.sampled_from(("identity", "half", "sqrt")),
    variant=st.sampled_from(("zero", "limit", "bounded")),
    transform=st.sampled_from(("fhat", "identity")),
    command=st.sampled_from(("analyze", "paranorm", "stat")),
    fmt=st.sampled_from(("json", "text", "csv")),
    malformed=st.one_of(st.just({}), st.sampled_from(MALFORMED)),
)
def test_cli_exits_cleanly_without_nan(
    values, orlicz, lam, variant, transform, command, fmt, malformed
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        seq = tmp / "seq.json"
        seq.write_text(json.dumps({"domain": "log", "values": values}))
        cfg = tmp / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "lambda": {"kind": lam},
                    "orlicz": orlicz,
                    "variant": variant,
                    "transform": transform,
                    **malformed,
                }
            )
        )
        out = tmp / "report"
        argv = [command, "--in", str(seq), "--config", str(cfg)]
        if command == "stat":
            argv += ["--epsilon", "2.0", "--ell", "1.5"]
        code = main(argv + ["--format", fmt, "--out", str(out)])
        event(f"{command} exit {code}")
        assert code in (0, 2, 3, 4)
        if malformed:
            assert code == 2
        if code == 0:
            report = out.read_text()
            assert not re.search(r"\bnan\b", report, re.IGNORECASE)
            if fmt == "json":
                assert not _has_nan(json.loads(report, parse_constant=_reject_constant))
