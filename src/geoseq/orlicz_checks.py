"""Checks of an Orlicz function and the Luxemburg norm of a finite sequence.

Grid validation of monotonicity and convexity, the numeric doubling
(Delta_2) constant, the small-argument threshold, and the Luxemburg norm
with the bare scale solver under it.  The verification harness and the
tests use them; no analysis command does, so they live apart from
:mod:`geoseq.orlicz`, which every such command compiles.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .orlicz import (
    _MAX_PROBES,
    DegenerateOrliczError,
    OrliczFunction,
    _fsum_sat,
    bracket_scale,
)
from .record import FrozenRecord

__all__ = [
    "OrliczDiagnostics",
    "Delta2Report",
    "log_grid",
    "validate_on_grid",
    "delta2_constant",
    "luxemburg_norm",
    "solve_scale",
    "small_argument_threshold",
]


class OrliczDiagnostics(FrozenRecord):
    """Result of grid validation; carries the first violation found:
    ``failure_kind`` "monotone" or "convex" and ``witness`` (s, t, lhs, rhs)."""

    __slots__ = ("passed", "failure_kind", "witness")
    _defaults = {"failure_kind": None, "witness": None}


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


class Delta2Report(FrozenRecord):
    """Numeric doubling-condition diagnosis M(2u) <= K M(u).

    ``K`` is the largest ratio seen on the grid (convexity with M(0) = 0
    forces K >= 2; the literature asserts strictly greater, yet t**1
    realises exactly 2, so the value is reported as computed).
    ``analytic`` carries the family's closed-form verdict when known.
    """

    __slots__ = ("satisfied", "K", "analytic", "grid_description", "growth", "clipped")
    _defaults = {"clipped": 0}


# the closed-form doubling verdict of each built-in family; tables have none
_DELTA2_ANALYTIC = {"power": True, "exp_minus_one": False, "x_log1p": True}


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
    values = M.eval_many(grid)
    doubled = M.eval_many([2.0 * u for u in grid])
    for u, mu, m2u in zip(grid, values, doubled):
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
        analytic=_DELTA2_ANALYTIC.get(M.kind),
        grid_description=desc,
        growth=growth,
        clipped=clipped,
    )


def solve_scale(
    constraint: Callable[[float], float], rel_tol: float, max_iter: int = _MAX_PROBES
) -> float:
    """inf{r > 0 : constraint(r) <= 1} for a constraint non-increasing in r.

    The admissible end ``hi`` of :func:`bracket_scale`: within ``rel_tol``
    (relative) above the infimum, ``inf`` when not even the largest finite
    double is admissible, and 0.0 when the smallest positive double is.
    Raises :class:`ScaleSolverError` when the constraint increases with r
    or ``max_iter`` probes do not reach ``rel_tol``.
    """
    return bracket_scale(constraint, rel_tol, max_iter).hi


def luxemburg_norm(x: Sequence[float], M: OrliczFunction) -> float:
    """inf{rho > 0 : sum M(|x_k| / rho) <= 1}, by :func:`solve_scale` to a
    relative 1e-12.

    The constraint map is non-increasing in rho because M is
    non-decreasing; that monotonicity is checked at every probe (raises
    :class:`ScaleSolverError`).  A sum beyond double range saturates to
    ``inf``.  Returns 0 for the zero sequence; raises ``ArithmeticError``
    when not even the largest finite double is an admissible scale.
    """
    mags = [abs(float(v)) for v in x]
    for i, m in enumerate(mags):
        if not math.isfinite(m):
            raise ValueError(f"term {i}: values must be finite, got {m!r}")
    if not mags or max(mags) == 0.0:
        return 0.0

    def constraint(rho: float) -> float:
        return _fsum_sat(M.eval_many([m / rho for m in mags]))

    rho = solve_scale(constraint, 1e-12)
    if math.isinf(rho):
        raise ArithmeticError("no admissible scale below the largest double")
    return rho


def small_argument_threshold(M: OrliczFunction, eps: float) -> float:
    """Largest delta in (0, 0.999] with M(t) <= eps for all t <= delta.

    Found by 80 bisections from 0.999, so it is at most 0.999 * 2**-80
    below the true threshold.  When no bisection point is admissible (a
    threshold below 0.999 * 2**-80, about 8e-25), the upper end keeps
    halving until M(t) <= eps, and [t, 2t] is bisected 80 times in turn,
    which reaches the spacing of the doubles there.  Only when not even
    the smallest positive double is admissible is the threshold reported
    as missing: :class:`DegenerateOrliczError`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cap = 0.999
    if M.eval(cap) <= eps:
        return cap
    lo, hi = _bisect_threshold(M, eps, 0.0, cap)
    if lo == 0.0:
        t = 0.5 * hi
        while t > 0.0 and not M.eval(t) <= eps:
            t *= 0.5  # exact down to the subnormals, then 5e-324, then 0
        if t == 0.0:
            raise DegenerateOrliczError(
                f"no positive small-argument threshold at eps={eps}"
            )
        lo, hi = _bisect_threshold(M, eps, t, 2.0 * t)
    return lo


def _bisect_threshold(M: OrliczFunction, eps: float, lo: float, hi: float) -> tuple:
    """80 bisections of [lo, hi], keeping M(lo) <= eps < M(hi)."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if M.eval(mid) <= eps:
            lo = mid
        else:
            hi = mid
    return lo, hi
