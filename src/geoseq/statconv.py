"""Window-density (statistical) convergence of difference-transformed sequences.

A sequence statistically converges to ell when, for every geometric
threshold epsilon > 1, the fraction of window indices whose transformed
residual magnitude reaches epsilon dies out.  Classically: count the
k in I(n) with |y_k - ln(ell)| >= ln(epsilon) and divide by lam(n).

Counting runs over k in I(n) (the window), matching the windowed modular
machinery; densities therefore share the membership verdict style, and
the per-window modular lower bound ties strong summability to these
densities exactly: the windowed modular mean dominates
M(ln(eps)/rho) * density on every window because M is non-decreasing.
"""

from __future__ import annotations

from itertools import repeat
from operator import ge, sub, truediv
from typing import Sequence

from .geometric import GeoScalar, GeoSequence
from .membership import _tail_verdict
from .record import Record
from .summability import (
    Exponents,
    LambdaSequence,
    SpaceSpec,
    Tolerances,
    modular_mean,
    window_sums,
    windowed_logs,
)

__all__ = [
    "DensityTrace",
    "stat_density",
    "stat_converges",
    "modular_density_bound",
]

class DensityTrace(Record):
    """Per-window exceedance counts and densities.

    ``counts[n-1]`` is the number of window indices k in I(n) whose
    residual magnitude reaches the threshold; ``densities[n-1]`` divides
    by lam(n), so it is bounded by |I(n)| / lam(n).
    """

    __slots__ = ("counts", "densities", "lambda_values", "epsilon", "ell")

    @property
    def n_windows(self) -> int:
        return len(self.counts)


def stat_density(
    x: GeoSequence,
    lam: LambdaSequence,
    ell: GeoScalar,
    epsilon: GeoScalar,
) -> DensityTrace:
    """Exceedance densities of the difference-transformed residuals.

    ``epsilon`` is a geometric threshold and must exceed the geometric
    zero (ln(epsilon) > 0).
    """
    if epsilon.log <= 0.0:
        raise ValueError(
            "threshold must exceed the geometric zero 1 (need ln(epsilon) > 0)"
        )
    return _density(windowed_logs(x, "fhat"), lam, ell, epsilon)


def _density(
    z: Sequence[float], lam: LambdaSequence, ell: GeoScalar, epsilon: GeoScalar
) -> DensityTrace:
    """:func:`stat_density` on the ``fhat`` view ``z`` of x, for callers that
    already hold it; ``epsilon`` is not checked again."""
    eps_c, center = epsilon.log, ell.log
    flags = map(ge, map(abs, map(sub, z, repeat(center))), repeat(eps_c))
    counts = window_sums(list(flags), lam)  # bools, so the counts are ints
    lam_values = lam.head(len(z))
    densities = list(map(truediv, counts, lam_values))
    return DensityTrace(counts, densities, lam_values, epsilon, ell)


def stat_converges(trace: DensityTrace, tols: Tolerances = Tolerances()) -> str:
    """Verdict on a density trace: the membership tail rule, over the last
    min(window_count, n_windows) windows."""
    if trace.n_windows == 0:
        raise ValueError("empty density trace")
    W = min(tols.window_count, trace.n_windows)
    return _tail_verdict(trace.densities, W, tols)[0]


def modular_density_bound(
    x: GeoSequence,
    spec: SpaceSpec,
    ell: GeoScalar,
    epsilon: GeoScalar,
    n: int,
) -> tuple:
    """(lhs, rhs) with lhs the unit-exponent windowed modular of the
    residuals and rhs = M(ln(epsilon)/rho) * density(n).

    lhs >= rhs holds exactly (given arithmetic) because every counted
    term contributes at least M(ln(epsilon)/rho) to the window sum.
    """
    eps_c = epsilon.log
    if eps_c <= 0.0:
        raise ValueError("threshold must exceed the geometric zero 1")
    z = windowed_logs(x, "fhat")
    lhs = modular_mean(
        z, spec.lam, spec.orlicz, Exponents.constant(1.0), spec.rho, n, ell.log
    )
    c = sum(1 for k in spec.lam.window(n) if abs(z[k - 1] - ell.log) >= eps_c)
    d_n = c / spec.lam.at(n)
    rhs = spec.orlicz.eval(eps_c / spec.rho) * d_n
    return lhs, rhs
