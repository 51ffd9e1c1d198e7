"""Empirical membership verdicts on a truncation: classify_membership.

The verdict reads the window trace S(1), ..., S(m) of
:mod:`geoseq.summability`: the zero and limit variants ask whether its
tail vanishes (the limit variant around an estimated limit centre), the
bounded variant whether it stays below a cap without a growth trend.
``analyze``, ``stat`` (the tail rule) and ``verify`` use it; ``paranorm``
does not, so it lives apart from :mod:`geoseq.summability`.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, repeat
from operator import and_, gt, lt, mul, sub
from typing import Optional, Sequence

from .geometric import GeoScalar, GeoSequence
from .orlicz import OrliczFunction, _fsum_sat, _pow_sat, _zeroin
from .record import Record
from .summability import (
    SpaceSpec,
    Tolerances,
    _exponent_values,
    _modular_terms,
    _window_means,
    windowed_logs,
)

__all__ = [
    "MembershipReport",
    "classify_membership",
    "CONVERGING",
    "BOUNDED",
    "DIVERGING",
    "INCONCLUSIVE",
]

CONVERGING = "converging"
BOUNDED = "bounded"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

# trend threshold for the empirical verdicts (desk-scale heuristic)
_FLAT_SLOPE = -0.05


class MembershipReport(Record):
    """Empirical verdict for one truncation.

    A truncation can never prove membership; the full window trace is
    returned so callers can judge the evidence themselves.
    """

    __slots__ = (
        "verdict",
        "window_values",
        "lambda_values",
        "tail_slope",
        "params_used",
        "limit_estimate",
        "reason",
    )

    def __init__(
        self,
        verdict: str,
        window_values: list,
        lambda_values: list,
        tail_slope: float,
        params_used: dict,
        limit_estimate: Optional[GeoScalar] = None,
        reason: Optional[str] = None,
    ):
        self.verdict = verdict
        self.window_values = window_values
        self.lambda_values = lambda_values
        self.tail_slope = tail_slope
        self.params_used = params_used
        self.limit_estimate = limit_estimate
        self.reason = reason


def _tail_slope(values: Sequence[float]) -> float:
    """Least-squares slope of log S against log n over the trailing half."""
    first = max(1, len(values) // 2)
    tail = values[first - 1 :]
    keep = list(map(and_, map(gt, tail, repeat(0.0)), map(lt, tail, repeat(math.inf))))
    xs = list(map(math.log, compress(range(first, len(values) + 1), keep)))
    if len(xs) < 3:
        return 0.0
    ys = list(map(math.log, compress(tail, keep)))
    # statistics.linear_regression's formula as Python 3.11 writes it (3.10
    # squares with ** 2.0, 3.12 sums with math.sumprod), so the slope does
    # not depend on the interpreter
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    dx = list(map(sub, xs, repeat(xbar)))
    sxy = math.fsum(map(mul, dx, map(sub, ys, repeat(ybar))))
    sxx = math.fsum(map(mul, dx, dx))
    return sxy / sxx  # > 0: the x are logs of three or more distinct n


def _median(values: Sequence[float]) -> float:
    """``statistics.median``, bit for bit: the middle of the sorted values,
    or the mean of the middle two as ``(a + b) / 2``."""
    s = sorted(values)
    i = len(s) // 2
    return s[i] if len(s) % 2 else (s[i - 1] + s[i]) / 2


def _tail_verdict(values: Sequence[float], W: int, tols: Tolerances) -> tuple:
    """(verdict, tail slope) of a trace that should vanish; verdict from the last W."""
    last = values[-W:]
    slope = _tail_slope(values)
    if all(v <= tols.tol for v in last):
        return CONVERGING, slope
    if _median(last) > tols.tol and slope > _FLAT_SLOPE:
        return DIVERGING, slope
    return INCONCLUSIVE, slope


def _decide_vanishing(values: Sequence[float], tols: Tolerances) -> tuple:
    """:func:`_tail_verdict`, but a converging tail whose median rose more
    than 1.1x over the previous W windows is inconclusive."""
    W = tols.window_count
    verdict, slope = _tail_verdict(values, W, tols)
    med_last = _median(values[-W:])
    med_prev = _median(values[-2 * W : -W])
    if verdict == CONVERGING and not med_last <= med_prev * 1.1 + 1e-12:
        return INCONCLUSIVE, slope
    return verdict, slope


_EPS = math.ulp(1.0)


def _slope(
    zs: Sequence[float], ps, orlicz: OrliczFunction, scale: float, c: float
) -> float:
    """D(c) = sum_k s_k phi_k'(|z_k - c| / scale), phi_k = M ** p_k, s_k = +1
    for z_k <= c and -1 otherwise: ``len(zs) * scale`` times the right
    derivative of the modular around c.  ``zs`` is sorted, and ``ps`` lists
    the exponents in its order, or is None for all 1: then phi' is M' and M
    is not evaluated.  Each side sums to ``inf`` at most; two give 0.
    """
    def side(us: list, qs) -> float:
        ds = orlicz.derivative_many(us)
        if qs:  # phi' = p M**(p - 1) M'
            ms = orlicz.eval_many(us)
            ds = [p * _pow_sat(m, p - 1.0) * d for p, m, d in zip(qs, ms, ds)]
        return _fsum_sat(ds)

    k = bisect_right(zs, c)
    up = side([(c - v) / scale for v in zs[:k]], ps and ps[:k])
    down = side([(v - c) / scale for v in zs[k:]], ps and ps[k:])
    return up - down if up != down else 0.0


def _estimate_limit(z: Sequence[float], spec: SpaceSpec) -> float:
    """Estimated log-limit: the minimiser of the final window's modular h(c).

    It lies in [lo, hi], the range of the window's terms.  For exponents
    >= 1, h is convex, and the minimiser is where its right derivative
    changes sign (Rockafellar 1970, *Convex Analysis*, section 24), read
    from D (:func:`_slope`).  When M'(0+) > 0, each term with exponent 1
    puts a kink in h, where the left derivative is D less 2 M'(0+) per
    such term.  Bisection over the sorted terms finds the first with
    D >= 0, the minimiser if its left derivative is <= 0 (so ``power(1)``
    ends on a median element).  Where D or the left derivative is 0, h may
    be flat on that side (``power(1)`` between the middle terms of an even
    window), and the median of the last quarter of z is kept if D is 0
    there too.  Otherwise :func:`~geoseq.orlicz._zeroin` narrows the gap
    below that term, or [lo, hi] for a smooth h, to 4 eps max(|lo|, |hi|),
    and its end with the smaller |D| is the estimate, unless a term in
    that final bracket has a smaller h (a near-kink, where exponents just
    above 1 almost put a kink in h at each term).  Exponents below 1
    make h non-convex, so the search raises them to 1.  A final window of
    one value is its own centre; one whose range overflows gets the
    midpoint 0.5 lo + 0.5 hi.
    """
    ks = spec.lam.window(len(z))
    zs = [z[k - 1] for k in ks]
    ps = _exponent_values(spec.exponents, ks)
    ps = [max(p, 1.0) for p in ([ps] * len(zs) if isinstance(ps, float) else ps)]
    kinked = [v for v, p in zip(zs, ps) if p == 1.0]
    zs, ps = (sorted(zs), None) if len(kinked) == len(zs) else zip(*sorted(zip(zs, ps)))
    lo, hi = zs[0], zs[-1]
    if not 0.0 < hi - lo < math.inf:
        return lo if lo == hi else 0.5 * lo + 0.5 * hi
    slope = functools.partial(_slope, zs, ps, spec.orlicz, spec.rho)
    jump = 2.0 * spec.orlicz.derivative_many([0.0])[0]  # per term at its kink
    if jump > 0.0 and kinked:
        counts, D = Counter(kinked), functools.cache(slope)
        # the first term with D >= 0; the last has it, every term counting +1
        j = bisect_left(zs, True, 0, len(zs) - 1, key=lambda c: D(c) >= 0.0)
        left = D(zs[j]) - jump * counts[zs[j]]
        if left <= 0.0 or j == 0:  # for M' >= 0, left <= 0 at j = 0
            if D(zs[j]) == 0.0 or left == 0.0:  # h may be flat on that side
                tail = min(max(_median(z[-math.ceil(len(z) / 4) :]), lo), hi)
                if D(tail) == 0.0:
                    return tail
            return zs[j]
        b, c = (zs[j], -left), (zs[j - 1], -D(zs[j - 1]))
    else:
        b, c = (hi, -slope(hi)), (lo, -slope(lo))
    ends = _zeroin(lambda x: -slope(x), b, c, 4.0 * _EPS * max(abs(lo), abs(hi)))
    est = min(ends, key=lambda end: abs(end[1]))[0]
    near = zs[bisect_left(zs, ends[0][0]) : bisect_right(zs, ends[1][0])]
    if near:
        def h(c):  # lambda times the modular the search minimises
            return _fsum_sat(_modular_terms(zs, ps or 1.0, spec.orlicz, spec.rho, c))

        return min([est, *near], key=h)  # the first, est, on a tie
    return est


def _short_truncation(m: int, tols: Tolerances) -> Optional[str]:
    """Why m windows are too few for a membership verdict, or None."""
    need = 4 * tols.window_count
    if m < need:
        return f"truncation too short: {m} windows < 4 * window_count = {need}"
    return None


def classify_membership(
    x: GeoSequence, spec: SpaceSpec, tols: Tolerances = Tolerances()
) -> MembershipReport:
    """Empirical membership verdict for the truncation x under spec.

    zero: converging iff the last W window modulars sit below tol with a
    non-increasing trend; limit: same test on the residual modular around
    the estimated limit; bounded: bounded iff no window exceeds the cap
    and no growth trend shows.  Anything the evidence cannot settle is
    inconclusive.
    """
    z = windowed_logs(x, spec.transform)
    m = len(z)
    params = {
        "spec": spec.describe(),
        "tolerances": tols.describe(),
        "windows": m,
    }
    short = _short_truncation(m, tols)
    if short is not None:
        return MembershipReport(
            verdict=INCONCLUSIVE,
            window_values=[],
            lambda_values=[],
            tail_slope=0.0,
            params_used=params,
            reason=short,
        )
    lam_values = spec.lam.head(m)

    ell = None
    center = 0.0
    if spec.variant == "limit":
        center = _estimate_limit(z, spec)
        ell = GeoScalar.from_log(center)

    ps = _exponent_values(spec.exponents, range(1, m + 1))
    terms = _modular_terms(z, ps, spec.orlicz, spec.rho, center)
    values = _window_means(terms, spec.lam, lam_values)

    if spec.variant == "bounded":
        slope = _tail_slope(values)
        peak = max(values)
        # growth test robust to the noise of a stabilising trace: the
        # last quarter of windows must not sit well above the second
        q2 = _median(values[m // 4 : m // 2])
        q4 = _median(values[3 * m // 4 :])
        growing = q4 > 1.5 * q2 + 1e-12
        if peak < tols.bound_cap and not growing:
            verdict = BOUNDED
        else:
            verdict = DIVERGING
    else:
        verdict, slope = _decide_vanishing(values, tols)

    return MembershipReport(
        verdict=verdict,
        window_values=values,
        lambda_values=lam_values,
        tail_slope=slope,
        params_used=params,
        limit_estimate=ell,
    )
