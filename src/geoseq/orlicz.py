"""Orlicz functions: built-in families, diagnostics, and the Luxemburg norm.

An Orlicz function M is continuous, convex, non-decreasing on [0, inf)
with M(0) = 0.  Built-in families:

* ``power(p)``        M(t) = t**p, p >= 1
* ``exp_minus_one``   M(t) = e**t - 1
* ``x_log1p``         M(t) = t * ln(1 + t)
* ``table(points)``   piecewise-linear through given knots (convexity is
  then checkable exactly on the slopes; deliberately invalid tables may
  be constructed so the diagnostics below have something to catch)

Evaluations saturate to ``inf`` beyond double range instead of raising,
which keeps the monotone constraint maps used by the norm and paranorm
solvers well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

__all__ = [
    "OrliczFunction",
    "OrliczDiagnostics",
    "Delta2Report",
    "DegenerateOrliczError",
    "ScaleSolverError",
    "log_grid",
    "validate_on_grid",
    "delta2_constant",
    "luxemburg_norm",
    "solve_scale",
    "small_argument_threshold",
]


class DegenerateOrliczError(ValueError):
    """M vanishes on positive arguments where a positive value is required."""


class ScaleSolverError(ArithmeticError):
    """A scale constraint map increased with the scale during a solve."""


def _pow_sat(base: float, exponent: float) -> float:
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _fsum_sat(terms) -> float:
    """``math.fsum`` of non-negative terms, saturating to ``inf`` on overflow."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class OrliczFunction:
    """Descriptor plus evaluator for an Orlicz function."""

    kind: str
    p: Optional[float] = None
    points: Optional[Tuple[Tuple[float, float], ...]] = None

    @classmethod
    def power(cls, p: float) -> "OrliczFunction":
        p = float(p)
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"power family needs p >= 1, got {p!r}")
        return cls(kind="power", p=p)

    @classmethod
    def exp_minus_one(cls) -> "OrliczFunction":
        return cls(kind="exp_minus_one")

    @classmethod
    def x_log1p(cls) -> "OrliczFunction":
        return cls(kind="x_log1p")

    @classmethod
    def table(cls, points: Sequence[Sequence[float]]) -> "OrliczFunction":
        pts = tuple((float(t), float(m)) for t, m in points)
        if len(pts) < 2:
            raise ValueError("table needs at least two knots")
        if pts[0] != (0.0, 0.0):
            raise ValueError("table must start at the knot (0, 0)")
        for i in range(1, len(pts)):
            if not (pts[i][0] > pts[i - 1][0]):
                raise ValueError("table abscissae must be strictly increasing")
            if not math.isfinite(pts[i][0]) or not math.isfinite(pts[i][1]):
                raise ValueError("table knots must be finite")
        return cls(kind="table", points=pts)

    def eval(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise ValueError(f"Orlicz functions take non-negative arguments, got {t!r}")
        if t == 0.0:
            return 0.0
        if self.kind == "power":
            return _pow_sat(t, self.p)
        if self.kind == "exp_minus_one":
            try:
                return math.expm1(t)
            except OverflowError:
                return math.inf
        if self.kind == "x_log1p":
            return t * math.log1p(t)
        if self.kind == "table":
            return self._eval_table(t)
        raise ValueError(f"unknown Orlicz family {self.kind!r}")

    __call__ = eval

    def eval_many(self, ts: Sequence[float]) -> list:
        """``[self.eval(t) for t in ts]`` for floats t >= 0, bit for bit.

        One dispatch on ``kind`` per list instead of one per term.  A list
        that overflows somewhere is redone through :meth:`eval`, which
        saturates to ``inf``.  ``table`` functions, and subclasses that
        override :meth:`eval`, are evaluated term by term through
        ``self.eval``, so a batch never bypasses an overriding ``eval``.
        """
        if self.kind == "table" or type(self).eval is not OrliczFunction.eval:
            return list(map(self.eval, ts))
        try:
            if self.kind == "power":
                p = self.p
                return list(ts) if p == 1.0 else [t ** p for t in ts]
            if self.kind == "x_log1p":
                log1p = math.log1p
                return [t * log1p(t) for t in ts]
            if self.kind == "exp_minus_one":
                return list(map(math.expm1, ts))
        except OverflowError:
            pass
        return list(map(self.eval, ts))

    def _eval_table(self, t: float) -> float:
        pts = self.points
        if t >= pts[-1][0]:
            # extrapolate with the final segment's slope
            (t0, m0), (t1, m1) = pts[-2], pts[-1]
            slope = (m1 - m0) / (t1 - t0)
            return m1 + slope * (t - t1)
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        (t0, m0), (t1, m1) = pts[lo], pts[hi]
        return m0 + (m1 - m0) * (t - t0) / (t1 - t0)

    @property
    def delta2_analytic(self) -> Optional[bool]:
        """Closed-form doubling verdict for built-in families, if known."""
        if self.kind == "power":
            return True
        if self.kind == "exp_minus_one":
            return False
        if self.kind == "x_log1p":
            return True
        return None

    @property
    def delta2_analytic_constant(self) -> Optional[float]:
        if self.kind == "power":
            return 2.0 ** self.p
        if self.kind == "x_log1p":
            # ratio M(2u)/M(u) = 2 log1p(2u)/log1p(u) decreases from 4 to 2
            return 4.0
        return None

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.p is not None:
            d["p"] = self.p
        if self.points is not None:
            d["points"] = [list(pt) for pt in self.points]
        return d

    @classmethod
    def from_config(cls, cfg: dict) -> "OrliczFunction":
        kind = cfg.get("kind")
        if kind == "power":
            return cls.power(cfg["p"])
        if kind == "exp_minus_one":
            return cls.exp_minus_one()
        if kind == "x_log1p":
            return cls.x_log1p()
        if kind == "table":
            return cls.table(cfg["points"])
        raise ValueError(f"unknown Orlicz kind {kind!r}")


@dataclass(frozen=True)
class OrliczDiagnostics:
    """Result of grid validation; carries the first violation found."""

    passed: bool
    failure_kind: Optional[str] = None  # "monotone" | "convex"
    witness: Optional[tuple] = None     # (s, t, lhs, rhs)


def log_grid(lo: float = 1e-6, hi: float = 1e6, per_decade: int = 60) -> list:
    """Logarithmically spaced positive grid, ``per_decade`` points per decade."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    decades = math.log10(hi / lo)
    count = max(2, int(round(decades * per_decade)) + 1)
    step = decades / (count - 1)
    return [lo * 10.0 ** (i * step) for i in range(count)]


def validate_on_grid(M: OrliczFunction, grid: Sequence[float]) -> OrliczDiagnostics:
    """Check monotonicity and midpoint convexity of M on a sorted positive grid.

    Diagnostics, not exceptions: the first violation beyond a relative
    1e-12 slack is reported with its witness pair.
    """
    grid = [float(g) for g in grid]
    if any(g <= 0 for g in grid) or any(
        grid[i] >= grid[i + 1] for i in range(len(grid) - 1)
    ):
        raise ValueError("grid must be sorted and strictly positive")
    vals = [M.eval(g) for g in grid]
    for i in range(len(grid) - 1):
        slack = 1e-12 * max(1.0, abs(vals[i]))
        if vals[i + 1] < vals[i] - slack:
            return OrliczDiagnostics(
                False, "monotone", (grid[i], grid[i + 1], vals[i], vals[i + 1])
            )
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            mid = 0.5 * (grid[i] + grid[j])
            lhs = M.eval(mid)
            rhs = 0.5 * (vals[i] + vals[j])
            if math.isinf(rhs):
                continue
            slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
            if lhs > rhs + slack:
                return OrliczDiagnostics(False, "convex", (grid[i], grid[j], lhs, rhs))
    return OrliczDiagnostics(True)


@dataclass(frozen=True)
class Delta2Report:
    """Numeric doubling-condition diagnosis M(2u) <= K M(u).

    ``K`` is the largest ratio seen on the grid (convexity with M(0) = 0
    forces K >= 2; the literature asserts strictly greater, yet t**1
    realises exactly 2, so the value is reported as computed).
    ``analytic`` carries the family's closed-form verdict when known.
    """

    satisfied: bool
    K: float
    analytic: Optional[bool]
    grid_description: str
    growth: float
    clipped: int = 0


def delta2_constant(
    M: OrliczFunction, grid: Optional[Sequence[float]] = None
) -> Delta2Report:
    """Estimate the doubling constant sup M(2u)/M(u) and judge boundedness.

    The verdict is numeric: ratios are collected on a log-spaced grid and
    the top third (in log-u) must not exceed the rest, else the ratio is
    trending upward and the condition is judged unsatisfied.
    """
    if grid is None:
        grid = log_grid()
        desc = "log-spaced [1e-06, 1e+06], 60 points/decade"
    else:
        grid = [float(g) for g in grid]
        desc = f"user grid, {len(grid)} points"
    if any(g <= 0 for g in grid):
        raise ValueError("grid must exclude 0")

    ratios = []
    clipped = 0
    for u in grid:
        mu = M.eval(u)
        m2u = M.eval(2.0 * u)
        if mu == 0.0:
            raise DegenerateOrliczError(
                f"M({u}) = 0 for positive argument; doubling ratio undefined"
            )
        if math.isinf(mu):
            clipped += 1
            continue
        ratios.append((u, m2u / mu))

    if not ratios:
        raise DegenerateOrliczError("no finite doubling ratios on the grid")

    K = max(r for _, r in ratios)
    log_lo = math.log(ratios[0][0])
    log_hi = math.log(ratios[-1][0])
    cut = log_lo + (2.0 / 3.0) * (log_hi - log_lo)
    head = [r for u, r in ratios if math.log(u) <= cut]
    tail = [r for u, r in ratios if math.log(u) > cut]
    if head and tail:
        growth = max(tail) / max(head)
    else:
        growth = 1.0
    satisfied = math.isfinite(K) and growth <= 1.0 + 1e-6 and clipped == 0
    return Delta2Report(
        satisfied=satisfied,
        K=K,
        analytic=M.delta2_analytic,
        grid_description=desc,
        growth=growth,
        clipped=clipped,
    )


def _check_non_increasing(g_small: float, g_large: float) -> None:
    # constraint values at a smaller and a larger scale
    slack = 1e-12 * max(1.0, abs(g_large))
    if math.isfinite(g_large) and not math.isinf(g_small):
        if not g_small >= g_large - slack:
            raise ScaleSolverError(f"constraint map increased: {g_small} -> {g_large}")


def solve_scale(
    constraint: Callable[[float], float], rel_tol: float, max_iter: int = 200
) -> float:
    """inf{r > 0 : constraint(r) <= 1} for a constraint non-increasing in r.

    Brackets by doubling up from r = 1 and halving down, then bisects to
    ``rel_tol``; returns the bracket's upper end, ``inf`` when no scale up
    to 2**max_iter is admissible, or 0.0 when every scale down to 1e-300
    is.  Monotonicity is checked at every probe (raises
    :class:`ScaleSolverError`).
    """
    hi = 1.0
    g_hi = constraint(hi)
    for _ in range(max_iter):
        if g_hi <= 1.0:
            break
        prev = g_hi
        hi *= 2.0
        g_hi = constraint(hi)
        _check_non_increasing(prev, g_hi)
    else:
        return math.inf

    lo = hi
    g_lo = g_hi
    while g_lo <= 1.0:
        if lo < 1e-300:
            return 0.0
        prev = g_lo
        lo *= 0.5
        g_lo = constraint(lo)
        _check_non_increasing(g_lo, prev)

    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        g_mid = constraint(mid)
        _check_non_increasing(g_lo, g_mid)
        _check_non_increasing(g_mid, g_hi)
        if g_mid <= 1.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return hi


def luxemburg_norm(
    x: Sequence[float],
    M: OrliczFunction,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """inf{rho > 0 : sum M(|x_k| / rho) <= 1}, by :func:`solve_scale`.

    The constraint map is non-increasing in rho because M is
    non-decreasing; that monotonicity is checked at every probe (raises
    :class:`ScaleSolverError`).  A sum beyond double range saturates to
    ``inf``.  Returns 0 for the zero sequence; raises ``ArithmeticError``
    when no scale up to 2**max_iter is admissible.
    """
    mags = [abs(float(v)) for v in x]
    for i, m in enumerate(mags):
        if not math.isfinite(m):
            raise ValueError(f"term {i}: values must be finite, got {m!r}")
    if not mags or max(mags) == 0.0:
        return 0.0

    def constraint(rho: float) -> float:
        return _fsum_sat(M.eval_many([m / rho for m in mags]))

    rho = solve_scale(constraint, rel_tol, max_iter)
    if math.isinf(rho):
        raise ArithmeticError("no admissible scale found while doubling upward")
    return rho


def small_argument_threshold(
    M: OrliczFunction, eps: float, cap: float = 0.999, iters: int = 80
) -> float:
    """Largest delta in (0, cap] with M(t) <= eps for all t <= delta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if M.eval(cap) <= eps:
        return cap
    lo, hi = 0.0, cap  # M(lo) = 0 <= eps < M(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if M.eval(mid) <= eps:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise DegenerateOrliczError(f"no positive small-argument threshold at eps={eps}")
    return lo
