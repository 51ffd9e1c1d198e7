"""Sequence/config file ingestion and report emission.

Sequence files are JSON documents ``{"domain": "geometric"|"log",
"values": [...], "metadata": {...}?}`` or CSV files with a single header
cell ``value`` or ``log_value`` and one number per line.  Run
configurations are a single JSON document validated against the module
invariants before any computation happens.

Reports are emitted as JSON, CSV or text with stable field ordering and
floats serialised to 17 significant digits, so emit/parse round-trips
reproduce every value to the last digit and identical runs produce
byte-identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .geometric import GeoScalar, GeoSequence
from .harness import SuiteReport, TrialConfig
from .orlicz import OrliczFunction
from .statconv import DensityTrace
from .summability import (
    Exponents,
    LambdaSequence,
    MembershipReport,
    ParanormResult,
    SpaceSpec,
    Tolerances,
)

__all__ = [
    "InputError",
    "RunConfig",
    "parse_sequence_file",
    "write_sequence_file",
    "load_config",
    "emit_report",
    "membership_report_dict",
    "paranorm_report_dict",
    "density_report_dict",
    "suite_report_dict",
]


class InputError(ValueError):
    """A file or configuration failed validation."""


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _render_json(obj, out: list) -> None:
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
            _render_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _render_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def render_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    out: list = []
    _render_json(obj, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# sequence files


def parse_sequence_file(path: Union[str, Path]) -> GeoSequence:
    """Read a sequence file; log-domain values are lifted through e**u."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".csv" or not text.lstrip().startswith("{"):
        return _parse_sequence_csv(text, path)
    return _parse_sequence_json(text, path)


def _parse_sequence_json(text: str, path: Path) -> GeoSequence:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: sequence file must be a JSON object")
    domain = doc.get("domain")
    if domain not in ("geometric", "log"):
        raise InputError(f"{path}: domain must be 'geometric' or 'log', got {domain!r}")
    values = doc.get("values")
    if not isinstance(values, list):
        raise InputError(f"{path}: 'values' must be a list of numbers")
    return _build_sequence(values, domain, path)


def _parse_sequence_csv(text: str, path: Path) -> GeoSequence:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty sequence file")
    header = lines[0].lower()
    if header == "value":
        domain = "geometric"
    elif header == "log_value":
        domain = "log"
    else:
        raise InputError(
            f"{path}: line 1: header must be 'value' or 'log_value', got {lines[0]!r}"
        )
    values = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            values.append(float(ln))
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: not a number: {ln!r}") from exc
    return _build_sequence(values, domain, path)


def _build_sequence(values: list, domain: str, path: Path) -> GeoSequence:
    floats = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InputError(f"{path}: index {i}: not a number: {v!r}")
        floats.append(float(v))
    if domain == "log":
        for i, v in enumerate(floats):
            if not math.isfinite(v):
                raise InputError(f"{path}: index {i}: log value must be finite")
        return GeoSequence.from_log(floats)
    for i, v in enumerate(floats):
        if not math.isfinite(v) or v <= 0.0:
            raise InputError(
                f"{path}: index {i}: geometric values must be positive finite, got {v!r}"
            )
    return GeoSequence(floats)


def write_sequence_file(
    x: GeoSequence,
    path: Union[str, Path],
    domain: str = "log",
    metadata: Optional[dict] = None,
) -> None:
    """Write a JSON sequence file in the chosen domain.

    Writing the geometric domain demands in-range representatives and
    raises :class:`geoseq.geometric.GeoRangeError` otherwise; a path that
    cannot be written raises :class:`InputError`.
    """
    if domain == "log":
        values = list(x.logs)
    elif domain == "geometric":
        values = list(x.values)
    else:
        raise InputError(f"domain must be 'geometric' or 'log', got {domain!r}")
    doc: dict = {"domain": domain, "values": values}
    if metadata:
        doc["metadata"] = metadata
    write_bytes(path, render_json(doc).encode())


def write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write a file; an ``OSError`` becomes an :class:`InputError` naming it."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Validated run configuration (one JSON document)."""

    lam: LambdaSequence = field(default_factory=LambdaSequence.identity)
    orlicz: OrliczFunction = field(default_factory=lambda: OrliczFunction.power(1.0))
    exponents: Exponents = field(default_factory=lambda: Exponents.constant(1.0))
    variant: str = "zero"
    transform: str = "fhat"
    rho: float = 1.0
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 42
    trials: int = 100

    def space_spec(self) -> SpaceSpec:
        return SpaceSpec(
            lam=self.lam,
            orlicz=self.orlicz,
            exponents=self.exponents,
            variant=self.variant,
            transform=self.transform,
            rho=self.rho,
        )

    def trial_config(
        self, seed: Optional[int] = None, trials: Optional[int] = None, length: int = 56
    ) -> TrialConfig:
        return TrialConfig(
            seed=self.seed if seed is None else seed,
            trials=self.trials if trials is None else trials,
            length=length,
            spec=self.space_spec(),
            tolerances=self.tolerances,
        )


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: configuration must be a JSON object")
    return config_from_dict(doc, str(path))


def _check_table(points) -> None:
    """Require positive, non-decreasing segment slopes, compared exactly.

    That makes M convex, non-decreasing from the knot (0, 0) and positive
    for t > 0.
    """
    pts = [(Fraction(t), Fraction(m)) for t, m in points]
    slopes = [(m1 - m0) / (t1 - t0) for (t0, m0), (t1, m1) in zip(pts, pts[1:])]
    if slopes[0] <= 0 or any(b < a for a, b in zip(slopes, slopes[1:])):
        raise ValueError(
            "table Orlicz function must be convex with M(t) > 0 for t > 0: segment "
            f"slopes must be positive and non-decreasing, got {[float(v) for v in slopes]}"
        )


def config_from_dict(doc: dict, where: str = "config") -> RunConfig:
    known = {
        "lambda",
        "orlicz",
        "exponents",
        "variant",
        "transform",
        "rho",
        "tolerances",
        "seed",
        "trials",
    }
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"{where}: unknown configuration keys {sorted(unknown)}")
    cfg = RunConfig()
    try:
        if "lambda" in doc:
            cfg.lam = LambdaSequence.from_config(doc["lambda"])
        if "orlicz" in doc:
            cfg.orlicz = OrliczFunction.from_config(doc["orlicz"])
            if cfg.orlicz.kind == "table":
                _check_table(cfg.orlicz.points)
        if "exponents" in doc:
            cfg.exponents = Exponents.from_config(doc["exponents"])
        if "variant" in doc:
            cfg.variant = doc["variant"]
        if "transform" in doc:
            cfg.transform = doc["transform"]
        if "rho" in doc:
            cfg.rho = float(doc["rho"])
        if "tolerances" in doc:
            t = doc["tolerances"]
            base = Tolerances()
            cfg.tolerances = Tolerances(
                tol=float(t.get("tol", base.tol)),
                window_count=int(t.get("window_count", base.window_count)),
                bound_cap=float(t.get("bound_cap", base.bound_cap)),
            )
        if "seed" in doc:
            cfg.seed = int(doc["seed"])
        if "trials" in doc:
            cfg.trials = int(doc["trials"])
        cfg.space_spec()  # triggers cross-field validation
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# reports


def _geo_dict(g: Optional[GeoScalar]) -> Optional[dict]:
    if g is None:
        return None
    d: dict = {"log": g.log}
    d["value"] = g.value if g.in_value_range else None
    return d


def membership_report_dict(report: MembershipReport) -> dict:
    return {
        "kind": "membership",
        "verdict": report.verdict,
        "limit_estimate": _geo_dict(report.limit_estimate),
        "tail_slope": report.tail_slope,
        "reason": report.reason,
        "params_used": report.params_used,
        "trace": {
            "n": list(range(1, len(report.window_values) + 1)),
            "lambda_n": list(report.lambda_values),
            "S_n": list(report.window_values),
        },
    }


def paranorm_report_dict(result: ParanormResult) -> dict:
    return {
        "kind": "paranorm",
        "rho_star": result.rho_star,
        "g": result.g,
        "g_geo": _geo_dict(result.g_geo),
    }


def density_report_dict(trace: DensityTrace, verdict: str) -> dict:
    return {
        "kind": "density",
        "verdict": verdict,
        "epsilon": _geo_dict(trace.epsilon),
        "ell": _geo_dict(trace.ell),
        "trace": {
            "n": list(range(1, trace.n_windows + 1)),
            "lambda_n": list(trace.lambda_values),
            "c_n": list(trace.counts),
            "d_n": list(trace.densities),
        },
    }


def suite_report_dict(report: SuiteReport) -> dict:
    return {
        "kind": "suite",
        "all_passed": report.all_passed,
        "config": report.config,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "trials": c.trials,
                "failures": c.failures,
                "worst_violation": c.worst_violation,
                "skipped": c.skipped,
                "first_failure": c.first_failure,
            }
            for c in report.checks
        ],
        "rows": [
            {
                "check": check,
                "trial": trial,
                "passed": passed,
                "worst_violation": worst,
            }
            for check, trial, passed, worst in report.rows
        ],
    }


def _csv_bytes(header: list, rows: list) -> bytes:
    """Comma-joined lines of formatted fields, without a csv writer.

    Every field is an int, a ``.17g`` float, a bool, a fixed check name or
    ``""``, so none can need quoting and ``csv.reader`` reads them back.
    """
    return "".join(",".join(map(_fmt, r)) + "\n" for r in [header, *rows]).encode()


def _report_csv(doc: dict) -> bytes:
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
        return _csv_bytes(["n", "lambda_n", "S_n", "d_n"], rows)
    if kind == "suite":
        rows = [
            [r["check"], r["trial"], r["passed"], r["worst_violation"]]
            for r in doc["rows"]
        ]
        return _csv_bytes(["check", "trial", "passed", "worst_violation"], rows)
    if kind == "paranorm":
        g_geo = doc["g_geo"]
        return _csv_bytes(
            ["rho_star", "g", "g_geo_log"],
            [[doc["rho_star"], doc["g"], g_geo["log"] if g_geo else ""]],
        )
    raise InputError(f"unknown report kind {kind!r}")


def _report_text(doc: dict) -> bytes:
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
    elif kind == "suite":
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
    else:
        raise InputError(f"unknown report kind {kind!r}")
    return ("\n".join(lines) + "\n").encode()


def emit_report(report, fmt: str) -> bytes:
    """Serialise a report (dict or known dataclass) as json, csv or text."""
    if isinstance(report, MembershipReport):
        doc = membership_report_dict(report)
    elif isinstance(report, ParanormResult):
        doc = paranorm_report_dict(report)
    elif isinstance(report, SuiteReport):
        doc = suite_report_dict(report)
    elif isinstance(report, dict):
        doc = report
    else:
        raise InputError(f"cannot emit a {type(report).__name__}")
    if fmt == "json":
        return render_json(doc).encode()
    if fmt == "csv":
        return _report_csv(doc)
    if fmt == "text":
        return _report_text(doc)
    raise InputError(f"unknown report format {fmt!r}")
