"""Reports formatted a column at a time equal the per-cell renderer, byte for byte.

``emit_report`` formats each report column with one ``map`` (over the
distinct values of a column with few of them) and joins the rows with one
row template.  The per-cell renderer below is the form it replaced, kept
here as the reference: every cell through ``_fmt``, one row at a time.
"""

import json
import math
import random

import pytest

from geoseq import (
    GEO_ZERO,
    GeoScalar,
    LambdaSequence,
    TrialConfig,
    emit_report,
    from_log,
    run_suite,
    stat_converges,
    stat_density,
)
from geoseq.fileio import (
    InputError,
    density_report_dict,
    membership_report_dict,
    paranorm_report_dict,
    render_json,
)
from geoseq.harness import suite_report_dict
from geoseq.membership import classify_membership
from geoseq.summability import (
    Exponents,
    ParanormResult,
    SpaceSpec,
    window_sums,
)
from geoseq.orlicz import OrliczFunction


# --------------------------------------------------------------------------
# the per-cell reference renderer


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _ref_render_json(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(format(obj, ".17g"))
        else:
            out.append(json.dumps(_fmt(obj)))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _ref_render_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _ref_render_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def _ref_csv_bytes(header: list, rows: list) -> bytes:
    return "".join(",".join(map(_fmt, r)) + "\n" for r in [header, *rows]).encode()


def _ref_csv(doc: dict) -> bytes:
    kind = doc.get("kind")
    if kind in ("membership", "density"):
        trace = doc["trace"]
        ns = trace["n"]
        lams = trace["lambda_n"]
        s_or_none = trace.get("S_n")
        d_or_none = trace.get("d_n")
        rows = []
        for i, n in enumerate(ns):
            s = s_or_none[i] if s_or_none is not None else ""
            d = d_or_none[i] if d_or_none is not None else ""
            rows.append([n, lams[i], s, d])
        return _ref_csv_bytes(["n", "lambda_n", "S_n", "d_n"], rows)
    if kind == "suite":
        rows = [
            [r["check"], r["trial"], r["passed"], r["worst_violation"]]
            for r in doc["rows"]
        ]
        return _ref_csv_bytes(["check", "trial", "passed", "worst_violation"], rows)
    g_geo = doc["g_geo"]
    return _ref_csv_bytes(
        ["rho_star", "g", "g_geo_log"],
        [[doc["rho_star"], doc["g"], g_geo["log"] if g_geo else ""]],
    )


def _ref_text(doc: dict) -> bytes:
    kind = doc.get("kind")
    lines = []
    if kind == "membership":
        lines.append(f"verdict: {doc['verdict']}")
        if doc.get("reason"):
            lines.append(f"reason: {doc['reason']}")
        est = doc.get("limit_estimate")
        if est is not None:
            lines.append(f"limit estimate (log-view): {_fmt(est['log'])}")
        lines.append(f"tail slope: {_fmt(doc['tail_slope'])}")
        lines.append("n lambda_n S_n")
        trace = doc["trace"]
        for i, n in enumerate(trace["n"]):
            lines.append(
                f"{n} {_fmt(trace['lambda_n'][i])} {_fmt(trace['S_n'][i])}"
            )
    elif kind == "density":
        lines.append(f"verdict: {doc['verdict']}")
        lines.append(f"epsilon (log-view): {_fmt(doc['epsilon']['log'])}")
        lines.append(f"ell (log-view): {_fmt(doc['ell']['log'])}")
        lines.append("n lambda_n c_n d_n")
        trace = doc["trace"]
        for i, n in enumerate(trace["n"]):
            lines.append(
                f"{n} {_fmt(trace['lambda_n'][i])} {trace['c_n'][i]}"
                f" {_fmt(trace['d_n'][i])}"
            )
    elif kind == "paranorm":
        lines.append(f"rho_star: {_fmt(doc['rho_star'])}")
        lines.append(f"g: {_fmt(doc['g'])}")
        g_geo = doc["g_geo"]
        if g_geo is None:
            lines.append("g_geo: (no admissible scale: infinite paranorm)")
        else:
            v = g_geo["value"]
            lines.append(
                f"g_geo: {_fmt(v) if v is not None else 'exp(' + _fmt(g_geo['log']) + ')'}"
            )
    else:
        lines.append(f"all passed: {doc['all_passed']}")
        for c in doc["checks"]:
            if c["skipped"]:
                lines.append(f"SKIP {c['name']}: {c['skipped']}")
                continue
            tag = "PASS" if c["passed"] else "FAIL"
            line = (
                f"{tag} {c['name']} trials={c['trials']}"
                f" failures={c['failures']}"
                f" worst_violation={_fmt(c['worst_violation'])}"
            )
            if c["first_failure"]:
                line += f" first_failure={c['first_failure']}"
            lines.append(line)
    return ("\n".join(lines) + "\n").encode()


def reference(doc: dict, fmt: str) -> bytes:
    if fmt == "json":
        out: list = []
        _ref_render_json(doc, out)
        out.append("\n")
        return "".join(out).encode()
    return _ref_csv(doc) if fmt == "csv" else _ref_text(doc)


FORMATS = ("json", "csv", "text")


def assert_same(report, doc: dict) -> None:
    for fmt in FORMATS:
        assert emit_report(report, fmt) == reference(doc, fmt), fmt


# --------------------------------------------------------------------------
# columns

TINY = 5e-324  # the smallest subnormal
HUGE = 1.7976931348623157e308  # the largest finite double
SPECIAL = [0.0, -0.0, math.inf, -math.inf, TINY, -TINY, 2.5e-310, HUGE, -HUGE,
           2.2250738585072014e-308, 1.0, 2.0, 1e16, 0.1, 1.0 / 3.0]

COLUMNS = {
    "zero then minus zero": [0.0] * 12 + [-0.0] + [1.0] * 7,
    "minus zero then zero": [-0.0] * 12 + [0.0] + [1.0] * 7,
    "minus zero alone, repeated": [-0.0] * 9 + [2.0] * 9,
    "zero alone, repeated": [0.0] * 15 + [0.5] * 3,
    "both zeros, all distinct otherwise": [0.0, -0.0, 1.0, 2.0, 3.0, 4.0],
    "special values": SPECIAL,
    "special values, repeated": SPECIAL * 4,
    "special values, reversed": SPECIAL[::-1],
    "nan": [math.nan, 1.0, math.nan, 1.0, 1.0, 1.0],
    "integral floats": [float(k) for k in range(1, 40)],
    "integral floats, few distinct": [float(k // 7) for k in range(40)],
    "subnormals": [TINY * k for k in range(30)],
    "ints": [1, 2, 3, 2 ** 70, -5, 0],
    "ints, few distinct": [k % 3 for k in range(30)],
    "ints and floats": [1, 1.0, 2, 2.0, 0, -0.0],
    "bools and ints": [True, 1, False, 0, True, 1, 1, 1],
    "bools": [True, False, True, True],
    "single": [0.25],
    "single minus zero": [-0.0],
    "empty": [],
}


def _random_floats(seed: int, m: int) -> list:
    rng = random.Random(seed)
    return [rng.choice([0.0, -0.0, TINY, rng.uniform(-3, 3), 1e300 * rng.random()])
            for _ in range(m)]


COLUMNS.update({f"random {s}": _random_floats(s, 50) for s in range(6)})


def membership_doc(lams: list, sums: list) -> dict:
    return {
        "kind": "membership",
        "verdict": "inconclusive",
        "limit_estimate": {"log": -0.0, "value": 1.0},
        "tail_slope": -0.0,
        "reason": None,
        "params_used": {"windows": len(sums), "values": sums},
        "trace": {"n": list(range(1, len(sums) + 1)), "lambda_n": lams, "S_n": sums},
    }


def density_doc(lams: list, counts: list, dens: list) -> dict:
    return {
        "kind": "density",
        "verdict": "converging",
        "epsilon": {"log": 1.0, "value": math.e},
        "ell": {"log": 0.0, "value": 1.0},
        "trace": {"n": list(range(1, len(dens) + 1)), "lambda_n": lams,
                  "c_n": counts, "d_n": dens},
    }


@pytest.mark.parametrize("name", sorted(COLUMNS))
class TestColumns:
    def test_membership(self, name):
        col = COLUMNS[name]
        doc = membership_doc([float(k) for k in range(1, len(col) + 1)], col)
        assert_same(doc, doc)
        swapped = membership_doc(col, list(reversed(col)))
        assert_same(swapped, swapped)

    def test_density(self, name):
        col = COLUMNS[name]
        doc = density_doc(col, [k % 4 for k in range(len(col))], col)
        assert_same(doc, doc)

    def test_suite_rows(self, name):
        col = COLUMNS[name]
        doc = {
            "kind": "suite",
            "all_passed": False,
            "config": {"column": col},
            "checks": [],
            "rows": [{"check": "solidity", "trial": k, "passed": k % 2 == 0,
                      "worst_violation": v} for k, v in enumerate(col)],
        }
        assert_same(doc, doc)

    def test_json_list(self, name):
        col = COLUMNS[name]
        for obj in (col, tuple(col), {"a": col, "b": [col, col]}):
            out: list = []
            _ref_render_json(obj, out)
            assert render_json(obj) == "".join(out) + "\n"


class TestReports:
    SPEC = SpaceSpec(LambdaSequence.sqrt(), OrliczFunction.x_log1p(), Exponents.constant(1.0))

    def test_membership(self):
        rng = random.Random(5)
        x = from_log([rng.uniform(-2, 2) for _ in range(300)])
        for lam in (LambdaSequence.identity(), LambdaSequence.half(), LambdaSequence.sqrt()):
            rep = classify_membership(x, SpaceSpec(lam, OrliczFunction.power(1.0),
                                                   Exponents.constant(1.0)))
            assert_same(rep, membership_report_dict(rep))

    def test_membership_of_a_short_truncation_is_header_only(self):
        rep = classify_membership(from_log([0.5] * 10), self.SPEC)
        assert rep.window_values == []
        assert_same(rep, membership_report_dict(rep))
        assert emit_report(rep, "csv") == b"n,lambda_n,S_n,d_n\n"

    def test_integer_window_sums(self):
        rep = classify_membership(from_log([0.0] * 60), self.SPEC)
        m = len(rep.window_values)
        sums = window_sums([k % 3 for k in range(m)], LambdaSequence.sqrt())
        assert all(type(s) is int for s in sums)
        rep.window_values = sums
        assert_same(rep, membership_report_dict(rep))

    @pytest.mark.parametrize("lam", ["identity", "half", "sqrt"])
    def test_density(self, lam):
        rng = random.Random(6)
        x = from_log([rng.uniform(-2, 2) for _ in range(400)])
        for m in (2, 3, 400):  # 1, 2 and 399 windows of the transform
            trace = stat_density(from_log(x.logs[:m]), LambdaSequence(lam), GEO_ZERO,
                                 GeoScalar.from_log(1.0))
            doc = density_report_dict(trace, stat_converges(trace))
            assert_same(doc, doc)

    def test_paranorm(self):
        for res in (ParanormResult(2.5, 2.5, GeoScalar.from_log(2.5), probes=3),
                    ParanormResult(0.0, 0.0, GEO_ZERO),
                    ParanormResult(-0.0, 800.0, GeoScalar.from_log(800.0)),
                    ParanormResult(math.inf, math.inf, None)):
            assert_same(res, paranorm_report_dict(res))

    def test_suite(self):
        rep = run_suite(TrialConfig(seed=3, trials=3, length=48))
        rep.rows = [("solidity", 7, False, math.inf), ("solidity", 8, True, -0.0),
                    ("solidity", 9, True, 0.0)] + rep.rows
        assert_same(rep, suite_report_dict(rep))

    def test_empty_suite(self):
        rep = run_suite(TrialConfig(seed=3, trials=0, length=40))
        assert_same(rep, suite_report_dict(rep))

    def test_unknown_kind_rejected(self):
        for fmt in ("csv", "text"):
            with pytest.raises(InputError):
                emit_report({"kind": "other"}, fmt)
