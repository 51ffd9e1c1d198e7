"""Reference checks for geoseq reports, computed without importing geoseq.

Every value comes from the definitions: exact Fibonacci integers, exactly
rounded transform rows (products and differences evaluated as rationals,
then rounded once), window sums with ``math.fsum`` and the closed-form
scale infimum for power Orlicz functions.

Tolerances.  A transform row computed in floating point may differ from
the reference by a few ulps of the two products it subtracts; ``Z_TOL``
(about nine ulps) bounds that, relative to ``|product 1| + |product 2|``.
Residuals |z_k - c| can cancel almost completely (limit variant), so a
window sum is checked against an interval: every term evaluated at
|z_k - c| -/+ its error bound.  ``REL_TOL`` then bounds the remaining
difference on S(n) and rho*: the program sums each window in ascending
order without compensation, an error of at most about lambda(n) * 2**-53
(2e-13 at lambda = 2000), and a reordered or prefix-sum engine moves
results by about one ulp.  A real defect, such as a term missing from a
window, moves S(n) by about 1/lambda(n) >= 5e-4 of a typical term.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import random
from fractions import Fraction

REL_TOL = 1e-9
Z_TOL = 2e-15
# search width of the scale-infimum property check when no closed form exists
RHO_PROBE = 1e-8
SAMPLED_WINDOWS = 8


# ---------------------------------------------------------------------------
# definitions


def _exact_diff(r: float, u: float, q: float, v: float) -> float:
    """r*u - q*v evaluated exactly and rounded once."""
    return float(Fraction(r) * Fraction(u) - Fraction(q) * Fraction(v))


def transform_rows(u: list) -> tuple:
    """(rows, scales) of the Fibonacci difference transform, f(0) = f(1) = 1.

    Row 0 is (f(0)/f(1)) u(0); row n is (f(n)/f(n+1)) u(n) - (f(n+1)/f(n)) u(n-1).
    ``scales[n]`` is |first product| + |second product|, the magnitude a
    rounding error in row n is relative to.
    """
    rows, scales = [], []
    a, b = 1, 1  # f(n), f(n+1)
    for n, un in enumerate(u):
        r = a / b  # int / int rounds correctly
        if n == 0:
            rows.append(float(Fraction(r) * Fraction(un)))
            scales.append(abs(un))
        else:
            q = b / a
            rows.append(_exact_diff(r, un, q, u[n - 1]))
            scales.append(abs(r * un) + abs(q * u[n - 1]))
        a, b = b, a + b
    return rows, scales


def windowed_view(u: list, transform: str) -> tuple:
    """1-indexed windowed view z (z[k-1] is term k) and a bound on each term's error."""
    if transform == "identity":
        return list(u), [0.0] * len(u)
    rows, scales = transform_rows(u)
    return rows[1:], [Z_TOL * s for s in scales[1:]]


def lam(kind: str, n: int) -> int:
    if kind == "identity":
        return n
    if kind == "half":
        return (n + 1) // 2
    if kind == "sqrt":
        return math.isqrt(n - 1) + 1
    raise ValueError(f"no reference for lambda kind {kind!r}")


def window(kind: str, n: int) -> range:
    return range(n - lam(kind, n) + 1, n + 1)


def _pow(base: float, e: float) -> float:
    try:
        return base ** e
    except OverflowError:
        return math.inf


def orlicz(cfg: dict):
    kind = cfg.get("kind", "power")
    if kind == "power":
        p = cfg["p"]
        return lambda t: _pow(t, p)
    if kind == "x_log1p":
        return lambda t: t * math.log1p(t)
    if kind == "exp_minus_one":
        return lambda t: math.expm1(t) if t < 709.0 else math.inf
    if kind == "table":
        ts = [pt[0] for pt in cfg["points"]]
        ms = [pt[1] for pt in cfg["points"]]

        def table(t):
            i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
            return ms[i] + (ms[i + 1] - ms[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
        return table
    raise ValueError(f"no reference for Orlicz kind {kind!r}")


def exponent(cfg: dict):
    """(p(k), inf p, sup p) of an exponent configuration."""
    if cfg.get("kind", "constant") == "constant":
        v = cfg.get("value", 1.0)
        return (lambda k: v), v, v
    c, d = cfg["c"], cfg["d"]
    return (lambda k: c + d / k), min(c, c + d), max(c, c + d)


def window_sum(z, err, lam_kind, M, p, scale, n, center=0.0) -> tuple:
    """(lo, hi) bounds on S(n) when each z_k is known to within err[k-1]."""
    lo, hi = [], []
    for k in window(lam_kind, n):
        dist, e = abs(z[k - 1] - center), err[k - 1]
        lo.append(_pow(M(max(0.0, dist - e) / scale), p(k)))
        hi.append(_pow(M((dist + e) / scale), p(k)))
    lam_n = lam(lam_kind, n)
    return math.fsum(lo) / lam_n, math.fsum(hi) / lam_n


def _within(got: float, lo: float, hi: float, tol: float = REL_TOL) -> bool:
    return lo * (1.0 - tol) - 1e-300 <= got <= hi * (1.0 + tol) + 1e-300


# ---------------------------------------------------------------------------
# report parsing (json, csv and text forms of each report kind)


def _text_value(lines: list, prefix: str) -> str:
    for ln in lines:
        if ln.startswith(prefix):
            return ln[len(prefix):].strip()
    raise ValueError(f"report has no line {prefix!r}")


def _text_table(lines: list, header: str) -> list:
    start = lines.index(header) + 1
    return [ln.split() for ln in lines[start:] if ln.strip()]


def parse_trace(kind: str, fmt: str, data: bytes) -> dict:
    """Normalised window trace of an analyze (membership) or stat (density) report."""
    text = data.decode()
    if fmt == "json":
        doc = json.loads(text)
        out = dict(doc["trace"])
        if kind == "analyze":
            out["windows"] = doc["params_used"]["windows"]
            est = doc["limit_estimate"]
            out["center"] = est["log"] if est else None
        else:
            out["epsilon"] = doc["epsilon"]["log"]
            out["ell"] = doc["ell"]["log"]
        return out
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["n", "lambda_n", "S_n", "d_n"]:
            raise ValueError(f"unexpected csv header {rows[0]}")
        body = rows[1:]
        out = {"n": [int(r[0]) for r in body], "lambda_n": [float(r[1]) for r in body]}
        if kind == "analyze":
            out["S_n"] = [float(r[2]) for r in body]
            out["center"] = None
        else:
            out["d_n"] = [float(r[3]) for r in body]
        return out
    lines = text.splitlines()
    if kind == "analyze":
        table = _text_table(lines, "n lambda_n S_n")
        center = None
        if any(ln.startswith("limit estimate") for ln in lines):
            center = float(_text_value(lines, "limit estimate (log-view):"))
        return {"n": [int(r[0]) for r in table], "lambda_n": [float(r[1]) for r in table],
                "S_n": [float(r[2]) for r in table], "center": center}
    table = _text_table(lines, "n lambda_n c_n d_n")
    return {"n": [int(r[0]) for r in table], "lambda_n": [float(r[1]) for r in table],
            "c_n": [int(r[2]) for r in table], "d_n": [float(r[3]) for r in table],
            "epsilon": float(_text_value(lines, "epsilon (log-view):")),
            "ell": float(_text_value(lines, "ell (log-view):"))}


def parse_paranorm(fmt: str, data: bytes) -> tuple:
    text = data.decode()
    if fmt == "json":
        doc = json.loads(text)
        return float(doc["rho_star"]), float(doc["g"])
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return float(rows[1][0]), float(rows[1][1])
    lines = text.splitlines()
    return float(_text_value(lines, "rho_star:")), float(_text_value(lines, "g:"))


def parse_suite(fmt: str, data: bytes) -> tuple:
    """(all_passed, {check: (trials, failures, skipped)}, {check: row count})."""
    text = data.decode()
    if fmt == "json":
        doc = json.loads(text)
        checks = {c["name"]: (c["trials"], c["failures"], bool(c["skipped"]))
                  for c in doc["checks"]}
        rows: dict = {}
        for r in doc["rows"]:
            if r["passed"]:
                rows[r["check"]] = rows.get(r["check"], 0) + 1
        return doc["all_passed"], checks, rows
    if fmt == "csv":
        body = list(csv.reader(io.StringIO(text)))[1:]
        rows = {}
        for check, _trial, passed, _worst in body:
            if passed == "True":
                rows[check] = rows.get(check, 0) + 1
        return None, None, rows
    lines = text.splitlines()
    checks = {}
    for ln in lines[1:]:
        tag, rest = ln.split(" ", 1)
        name = rest.split(":")[0].split(" ")[0]
        if tag == "SKIP":
            checks[name] = (0, 0, True)
        else:
            fields = dict(f.split("=", 1) for f in rest.split(" ")[1:3])
            checks[name] = (int(fields["trials"]), int(fields["failures"]), False)
    return _text_value(lines, "all passed:") == "True", checks, None


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the report is right


SUITE_CHECKS = ("linear_combination", "solidity", "delta2_inclusion",
                "exponent_inclusion", "density_bound", "stat_consistency")


class Oracle:
    """Checks the reports of one workload against references from its inputs."""

    def __init__(self, workload):
        self.wl = workload
        self._views: dict = {}

    def _view(self, seq: str, transform: str) -> tuple:
        key = (seq, transform)
        if key not in self._views:
            self._views[key] = windowed_view(self.wl.sequences[seq], transform)
        return self._views[key]

    def check(self, cmd, data: bytes) -> list:
        try:
            return getattr(self, f"_check_{cmd.kind}")(cmd, data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]

    def _check_lambdas(self, lam_kind, got, windows) -> list:
        if got["n"] != list(range(1, windows + 1)):
            return [f"trace covers {len(got['n'])} windows, expected {windows}"]
        bad = [n for n, v in zip(got["n"], got["lambda_n"]) if v != lam(lam_kind, n)]
        return [f"lambda_n wrong at n = {bad[:5]}"] if bad else []

    def _check_analyze(self, cmd, data) -> list:
        cfg = self.wl.configs[cmd.config]
        transform = cfg.get("transform", "fhat")
        lam_kind = cfg.get("lambda", {}).get("kind", "identity")
        z, err = self._view(cmd.seq, transform)
        got = parse_trace("analyze", cmd.fmt, data)
        problems = self._check_lambdas(lam_kind, got, len(z))
        if got.get("windows", len(z)) != len(z):
            problems.append(f"params_used.windows = {got['windows']}, expected {len(z)}")
        if problems:
            return problems
        center = 0.0
        if cfg.get("variant", "zero") == "limit":
            if got["center"] is None:
                return ["limit variant report carries no limit estimate"]
            center = got["center"]
        M = orlicz(cfg.get("orlicz", {"kind": "power", "p": 1.0}))
        p, _, _ = exponent(cfg.get("exponents", {}))
        rho = cfg.get("rho", 1.0)
        rng = random.Random(repr(cmd))
        sample = {1, len(z)} | {rng.randint(1, len(z)) for _ in range(SAMPLED_WINDOWS - 2)}
        for n in sorted(sample):
            lo, hi = window_sum(z, err, lam_kind, M, p, rho, n, center)
            if not _within(got["S_n"][n - 1], lo, hi):
                problems.append(f"S_{n} = {got['S_n'][n - 1]!r}, reference [{lo!r}, {hi!r}]")
        return problems

    def _check_stat(self, cmd, data) -> list:
        lam_kind = self.wl.configs[cmd.config].get("lambda", {}).get("kind", "identity")
        z, err = self._view(cmd.seq, "fhat")
        got = parse_trace("stat", cmd.fmt, data)
        problems = self._check_lambdas(lam_kind, got, len(z))
        if "epsilon" in got:
            for name, arg in (("epsilon", cmd.epsilon), ("ell", cmd.ell)):
                if abs(got[name] - math.log(arg)) > 1e-12:
                    problems.append(f"{name} log-view {got[name]!r} != ln({arg!r})")
            eps_c, center = got["epsilon"], got["ell"]
        else:  # csv carries the trace only
            eps_c, center = math.log(cmd.epsilon), math.log(cmd.ell)
        if problems:
            return problems
        # per-term exceedance; a residual within rounding of the threshold may go either way
        sure, maybe = [0], [0]
        for zk, e in zip(z, err):
            dist = abs(zk - center)
            margin = e + Z_TOL * (abs(center) + eps_c)
            sure.append(sure[-1] + (dist >= eps_c + margin))
            maybe.append(maybe[-1] + (dist >= eps_c - margin))
        counts = got.get("c_n") or [round(d * lam(lam_kind, n))
                                    for n, d in zip(got["n"], got["d_n"])]
        for n, c, d in zip(got["n"], counts, got["d_n"]):
            lo = n - lam(lam_kind, n)
            if not (sure[n] - sure[lo] <= c <= maybe[n] - maybe[lo]):
                problems.append(f"c_{n} = {c}, reference {sure[n] - sure[lo]}")
            elif d != c / lam(lam_kind, n):
                problems.append(f"d_{n} = {d!r} != c_n / lambda_n")
            if len(problems) >= 5:
                break
        return problems

    def _check_paranorm(self, cmd, data) -> list:
        cfg = self.wl.configs[cmd.config]
        lam_kind = cfg["lambda"]["kind"]
        z, err = self._view(cmd.seq, cfg.get("transform", "fhat"))
        ocfg, ecfg = cfg["orlicz"], cfg.get("exponents", {"kind": "constant", "value": 1.0})
        p, p_inf, p_sup = exponent(ecfg)
        H = max(1.0, p_sup)
        rho, g = parse_paranorm(cmd.fmt, data)
        problems = []
        if ocfg["kind"] == "power" and ecfg["kind"] == "constant":
            # S_n(r) = r**(-a q) S_n(1), so rho* = (max_n S_n(1))**(1/(a q))
            aq = ocfg["p"] * ecfg["value"]
            sums = [window_sum(z, err, lam_kind, orlicz(ocfg), p, 1.0, n)
                    for n in range(1, len(z) + 1)]
            lo, hi = (max(b) ** (1.0 / aq) for b in zip(*sums))
            if not _within(rho, lo, hi):
                problems.append(f"rho_star = {rho!r}, closed form [{lo!r}, {hi!r}]")
        else:
            M = orlicz(ocfg)

            def constraint(r, bound):
                return max(_pow(window_sum(z, err, lam_kind, M, p, r, n)[bound], 1.0 / H)
                           for n in range(1, len(z) + 1))
            above = constraint(rho * (1 + RHO_PROBE), 1)
            below = constraint(rho * (1 - RHO_PROBE), 0)
            if not (above <= 1.0 < below):
                problems.append(
                    f"rho_star = {rho!r} is not the scale infimum: constraint "
                    f"{below!r} just below, {above!r} just above")
        want = _pow(rho, p_inf / H)
        if not _within(g, want, want, 1e-12):
            problems.append(f"g = {g!r} != rho_star**(pbar/H)")
        return problems

    def _check_verify(self, cmd, data) -> list:
        cfg = self.wl.configs[cmd.config]
        trials = cfg["trials"]
        # exp(t) - 1 fails the doubling condition, so that check is skipped
        skipped = {"delta2_inclusion"} if cfg["orlicz"]["kind"] == "exp_minus_one" else set()
        expected = [c for c in SUITE_CHECKS if c not in skipped]
        all_passed, checks, rows = parse_suite(cmd.fmt, data)
        problems = []
        if all_passed is not None and all_passed is not True:
            problems.append("suite reports a failure")
        if checks is not None:
            if list(checks) != list(SUITE_CHECKS):
                problems.append(f"checks {list(checks)}, expected {list(SUITE_CHECKS)}")
            for name, (n_trials, failures, skip) in checks.items():
                if skip != (name in skipped):
                    problems.append(f"{name}: skipped = {skip}")
                elif not skip and (n_trials, failures) != (trials, 0):
                    problems.append(f"{name}: trials={n_trials} failures={failures}")
        if rows is not None and rows != {c: trials for c in expected}:
            problems.append(f"passing rows per check {rows}, expected {trials} each")
        return problems

    def _check_transform(self, cmd, data: bytes) -> list:
        doc = json.loads(data)
        domain = "log" if cmd.fmt == "log" else "geometric"
        if doc.get("domain") != domain:
            return [f"domain {doc.get('domain')!r}, expected {domain!r}"]
        rows, scales = transform_rows(self.wl.sequences[cmd.seq])
        values = doc["values"]
        if len(values) != len(rows):
            return [f"{len(values)} rows, expected {len(rows)}"]
        problems = []
        for n, (v, want, s) in enumerate(zip(values, rows, scales)):
            got = v if domain == "log" else math.log(v)
            # the geometric domain adds the rounding of exp and log
            tol = Z_TOL * s + (0.0 if domain == "log" else 1e-15 * (1.0 + abs(want)))
            if not abs(got - want) <= tol + 1e-300:
                problems.append(f"row {n} = {got!r}, reference {want!r}")
                if len(problems) >= 5:
                    break
        return problems

