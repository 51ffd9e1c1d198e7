"""Checks of an Orlicz function and the Luxemburg norm of a finite sequence.

The numeric doubling (Delta_2) constant, the small-argument threshold,
and the Luxemburg norm.  The verification harness and the tests use
them; no analysis command does, so they live apart from
:mod:`geoseq.orlicz`, which every such command compiles.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .orlicz import DegenerateOrliczError, OrliczFunction, _fsum_sat, bracket_scale
from .record import FrozenRecord

__all__ = [
    "Delta2Report",
    "delta2_constant",
    "luxemburg_norm",
    "small_argument_threshold",
]


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
# the default grid of delta2_constant, 60 log-spaced points per decade over
# [1e-6, 1e6] (exponent i * (1/60): i / 60 rounds differently for some i,
# and K would move in its last bits), and the description its reports carry
_GRID = tuple(1e-6 * 10.0 ** (i * (1.0 / 60.0)) for i in range(721))
_GRID_DESCRIPTION = "log-spaced [1e-06, 1e+06], 60 points/decade"


def delta2_constant(
    M: OrliczFunction, grid: Optional[Sequence[float]] = None
) -> Delta2Report:
    """Estimate the doubling constant sup M(2u)/M(u) and judge boundedness.

    The verdict is numeric: ratios are collected on a log-spaced grid and
    the top third (in log-u) must not exceed the rest, else the ratio is
    trending upward and the condition is judged unsatisfied.
    """
    if grid is None:
        grid, desc = _GRID, _GRID_DESCRIPTION
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


def luxemburg_norm(x: Sequence[float], M: OrliczFunction) -> float:
    """inf{rho > 0 : sum M(|x_k| / rho) <= 1}: the admissible end ``hi`` of
    :func:`~geoseq.orlicz.bracket_scale` at a relative 1e-12.

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

    rho = bracket_scale(constraint, 1e-12).hi
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
