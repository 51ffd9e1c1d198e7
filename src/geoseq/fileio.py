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
from functools import partial
from itertools import chain, filterfalse, repeat
from operator import sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .geometric import GeoScalar, GeoSequence
from .orlicz import OrliczFunction
from .record import Record
from .summability import (
    Exponents,
    LambdaSequence,
    ParanormResult,
    SpaceSpec,
    Tolerances,
)

if TYPE_CHECKING:  # loaded where used, so paranorm loads none of them
    from .harness import TrialConfig
    from .membership import MembershipReport
    from .statconv import DensityTrace

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
]


class InputError(ValueError):
    """A file or configuration failed validation."""


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _column(values: list) -> Iterable:
    """Cells whose ``str`` is ``_fmt``, a column at a time: ``values`` without
    floats, one ``map`` of ``.17g`` for floats only, over the distinct values
    when at most half are distinct and 0.0 and -0.0 (equal dict keys) do not
    both occur."""
    kinds = set(map(type, values))
    if not any(issubclass(k, float) for k in kinds):
        return values
    if kinds != {float}:
        return map(_fmt, values)
    table = dict.fromkeys(values)
    zero_signs = set(map(math.copysign, repeat(1.0), filterfalse(None, values)))
    if 2 * len(table) > len(values) or len(zero_signs) > 1:
        return map("{:.17g}".format, values)
    return map(dict(zip(table, map("{:.17g}".format, table))).__getitem__, values)


def _rows(row: str, *columns: Iterable) -> str:
    """``row`` once per row of ``columns``, filled by one ``%`` over all cells."""
    cells = tuple(chain.from_iterable(zip(*columns)))
    return (row * (len(cells) // len(columns))) % cells


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
        kinds = set(map(type, obj))  # a finite sum of floats: every one finite
        if kinds == {int} or kinds == {float} and math.isfinite(sum(map(abs, obj))):
            out.append("[" + ", ".join(map(str, _column(obj))) + "]")
        else:
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


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _json_object(text: str, path: Path, what: str) -> dict:
    """Decode ``text`` as one JSON object; ``what`` names the file kind."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # "Exceeds the limit (4300 digits) ...; use sys..."
        reason = str(exc).partition(";")[0]
        raise InputError(f"{path}: JSON integer too long to read: {reason}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: {what} must be a JSON object")
    return doc


def parse_sequence_file(path: Union[str, Path]) -> GeoSequence:
    """Read a sequence file; log-domain values are lifted through e**u."""
    path = Path(path)
    text = _read_text(path)
    if path.suffix.lower() == ".csv" or not text.lstrip().startswith("{"):
        return _parse_sequence_csv(text, path)
    return _parse_sequence_json(text, path)


def _parse_sequence_json(text: str, path: Path) -> GeoSequence:
    doc = _json_object(text, path, "sequence file")
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
    """One type pass, one conversion and the sequence's own range test;
    the terms are visited one by one only to name the first bad one."""
    build = GeoSequence.from_log if domain == "log" else GeoSequence
    try:
        if set(map(type, values)) <= {int, float}:  # bool is neither
            return build(list(map(float, values)))
    except (OverflowError, ValueError):
        pass
    floats = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InputError(f"{path}: index {i}: not a number: {v!r}")
        try:
            floats.append(float(v))
        except OverflowError:
            raise InputError(f"{path}: index {i}: number out of double range") from None
    for i, v in enumerate(floats):
        if domain == "log" and not math.isfinite(v):
            raise InputError(f"{path}: index {i}: log value must be finite")
        if domain != "log" and not (math.isfinite(v) and v > 0.0):
            raise InputError(
                f"{path}: index {i}: geometric values must be positive finite, got {v!r}"
            )
    return build(floats)


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


class RunConfig(Record):
    """Validated run configuration (one JSON document)."""

    __slots__ = (
        "lam",
        "orlicz",
        "exponents",
        "variant",
        "transform",
        "rho",
        "tolerances",
        "seed",
        "trials",
    )

    def __init__(
        self,
        lam: Optional[LambdaSequence] = None,
        orlicz: Optional[OrliczFunction] = None,
        exponents: Optional[Exponents] = None,
        variant: str = "zero",
        transform: str = "fhat",
        rho: float = 1.0,
        tolerances: Optional[Tolerances] = None,
        seed: int = 42,
        trials: int = 100,
    ):
        self.lam = LambdaSequence.identity() if lam is None else lam
        self.orlicz = OrliczFunction.power(1.0) if orlicz is None else orlicz
        self.exponents = Exponents.constant(1.0) if exponents is None else exponents
        self.variant = variant
        self.transform = transform
        self.rho = rho
        self.tolerances = Tolerances() if tolerances is None else tolerances
        self.seed = seed
        self.trials = trials

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
        from .harness import TrialConfig

        return TrialConfig(
            seed=self.seed if seed is None else seed,
            trials=self.trials if trials is None else trials,
            length=length,
            spec=self.space_spec(),
            tolerances=self.tolerances,
        )


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    doc = _json_object(_read_text(path), path, "configuration")
    return config_from_dict(doc, str(path))


def _check_table(points) -> None:
    """Require positive, non-decreasing segment slopes, compared exactly.

    That makes M convex, non-decreasing from the knot (0, 0) and positive
    for t > 0.  Every knot coordinate is an integer over a power of two, so
    at the largest such denominator all are integers, and slope i is
    rises[i] / runs[i] exactly, with runs[i] > 0 (abscissae increase).
    """
    ratios = [v.as_integer_ratio() for knot in points for v in knot]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    ts, ms = ints[0::2], ints[1::2]
    rises = list(map(sub, ms[1:], ms[:-1]))
    runs = list(map(sub, ts[1:], ts[:-1]))
    steps = list(zip(rises, runs))
    if rises[0] <= 0 or any(b * u < a * v for (a, u), (b, v) in zip(steps, steps[1:])):
        raise ValueError(
            "table Orlicz function must be convex with M(t) > 0 for t > 0: segment "
            f"slopes must be positive and non-decreasing, got {[a / u for a, u in steps]}"
        )


def _section(cls, doc):
    """``cls`` built from a JSON object's members as keyword arguments.

    Every member but ``kind`` must be a JSON number, a list of numbers or a
    list of such lists (a table's knots); null stands for an absent member.
    Bools and strings are not numbers, though ``float`` would take them.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"section must be a JSON object, got {type(doc).__name__}")
    for name, value in doc.items():
        if name != "kind" and value is not None:
            _check_numbers(name, value, depth=2)
    return cls(**doc)


def _check_numbers(where: str, value, depth: int) -> None:
    """Require ``value`` to be a JSON number, or a list nested at most
    ``depth`` deep with numbers at the bottom."""
    if type(value) in (int, float):
        return
    if not (depth and isinstance(value, list)):
        shown = repr(value) if isinstance(value, (str, bool)) else type(value).__name__
        raise ValueError(f"{where}: must be a JSON number, got {shown}")
    if not set(map(type, value)) <= {int, float}:  # bool is neither
        for i, item in enumerate(value):
            _check_numbers(f"{where}[{i}]", item, depth - 1)


def _orlicz(doc) -> OrliczFunction:
    M = _section(OrliczFunction, doc)
    if M.kind == "table":
        _check_table(M.points)
    return M


def _number(kind, v):
    """``v`` as ``kind`` (float or int) when it is a JSON number of that kind;
    bools and strings are not numbers, and 2.7 or 5.0 is not an integer."""
    if isinstance(v, bool) or not isinstance(v, (kind, int)):
        raise ValueError(f"must be a number of type {kind.__name__}, got {v!r}")
    return kind(v)


def _trials(v) -> int:
    """A trial count: a JSON integer >= 1 (``TrialConfig`` itself allows 0)."""
    n = _number(int, v)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


# config key -> (RunConfig field, builder of its value), in the order built;
# space_spec() then checks variant, transform and rho against their ranges
_KEYS = {
    "lambda": ("lam", partial(_section, LambdaSequence)),
    "orlicz": ("orlicz", _orlicz),
    "exponents": ("exponents", partial(_section, Exponents)),
    "variant": ("variant", str),
    "transform": ("transform", str),
    "rho": ("rho", partial(_number, float)),
    "tolerances": ("tolerances", partial(_section, Tolerances)),
    "seed": ("seed", partial(_number, int)),
    "trials": ("trials", _trials),
}


def config_from_dict(doc: dict, where: str = "config") -> RunConfig:
    unknown = set(doc) - set(_KEYS)
    if unknown:
        raise InputError(f"{where}: unknown configuration keys {sorted(unknown)}")
    cfg = RunConfig()
    for key, (name, build) in _KEYS.items():
        if key in doc:
            try:
                setattr(cfg, name, build(doc[key]))
            except (ValueError, TypeError, KeyError, OverflowError) as exc:
                raise InputError(f"{where}: {key}: {exc}") from exc
    try:
        cfg.space_spec()
    except ValueError as exc:
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


def _csv(header: str, *columns: list) -> bytes:
    """The header line and one comma-joined line per row, a column at a time.

    Every field is an int, a ``.17g`` float, a bool, a fixed check name or
    ``""``, so none can need quoting and ``csv.reader`` reads them back.
    """
    row = ",".join(["%s"] * len(columns)) + "\n"
    return (header + "\n" + _rows(row, *map(_column, columns))).encode()


def _report_csv(doc: dict) -> bytes:
    kind = doc.get("kind")
    if kind in ("membership", "density"):
        trace = doc["trace"]
        blank = [""] * len(trace["n"])
        columns = [trace.get(k) or blank for k in ("S_n", "d_n")]
        return _csv("n,lambda_n,S_n,d_n", trace["n"], trace["lambda_n"], *columns)
    if kind == "suite":
        keys = ("check", "trial", "passed", "worst_violation")
        return _csv(",".join(keys), *([r[k] for r in doc["rows"]] for k in keys))
    if kind == "paranorm":
        g_geo = doc["g_geo"]
        log = g_geo["log"] if g_geo else ""
        return _csv("rho_star,g,g_geo_log", [doc["rho_star"]], [doc["g"]], [log])
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
        lams, sums = _column(trace["lambda_n"]), _column(trace["S_n"])
        lines[-1] += _rows("\n%s %s %s", trace["n"], lams, sums)
    elif kind == "density":
        lines.append(f"verdict: {doc['verdict']}")
        lines.append(f"epsilon (log-view): {_fmt(doc['epsilon']['log'])}")
        lines.append(f"ell (log-view): {_fmt(doc['ell']['log'])}")
        lines.append("n lambda_n c_n d_n")
        trace = doc["trace"]
        lams, dens = _column(trace["lambda_n"]), _column(trace["d_n"])
        lines[-1] += _rows("\n%s %s %s %s", trace["n"], lams, trace["c_n"], dens)
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


def _record_dict(report) -> dict:
    """The report dict of a membership or suite report.

    Their classes load here, not with this module: a command that emits
    one has loaded its module already, and ``paranorm`` loads neither.
    """
    from .membership import MembershipReport

    if isinstance(report, MembershipReport):
        return membership_report_dict(report)
    from .harness import SuiteReport, suite_report_dict

    if isinstance(report, SuiteReport):
        return suite_report_dict(report)
    raise InputError(f"cannot emit a {type(report).__name__}")


def emit_report(report, fmt: str) -> bytes:
    """Serialise a report (a dict or a known report record) as json, csv or text."""
    if isinstance(report, ParanormResult):
        doc = paranorm_report_dict(report)
    elif isinstance(report, dict):
        doc = report
    else:
        doc = _record_dict(report)
    if fmt == "json":
        return render_json(doc).encode()
    if fmt == "csv":
        return _report_csv(doc)
    if fmt == "text":
        return _report_text(doc)
    raise InputError(f"unknown report format {fmt!r}")
