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
    _modular_terms,
    modular_trace,
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
    """(verdict, tail slope) of a trace that should vanish; verdict from the
    last W.  The slope is fitted only when the diverging test reaches it,
    and is None otherwise."""
    last = values[-W:]
    if all(v <= tols.tol for v in last):
        return CONVERGING, None
    if not _median(last) > tols.tol:
        return INCONCLUSIVE, None
    slope = _tail_slope(values)
    return DIVERGING if slope > _FLAT_SLOPE else INCONCLUSIVE, slope


def _decide_vanishing(values: Sequence[float], tols: Tolerances) -> tuple:
    """:func:`_tail_verdict`, but a converging tail whose median rose more
    than 1.1x over the previous W windows is inconclusive."""
    W = tols.window_count
    verdict, slope = _tail_verdict(values, W, tols)
    if verdict == CONVERGING:
        med_last = _median(values[-W:])
        med_prev = _median(values[-2 * W : -W])
        if not med_last <= med_prev * 1.1 + 1e-12:
            return INCONCLUSIVE, slope
    return verdict, slope


_EPS = math.ulp(1.0)


def _slope(
    zs: Sequence[float], ps: list, orlicz: OrliczFunction, scale: float, c: float
) -> float:
    """D(c) = sum_k s_k phi_k'(|z_k - c| / scale), phi_k = M ** p_k, s_k = +1
    for z_k <= c and -1 otherwise: ``len(zs) * scale`` times the right
    derivative of the modular around c.  ``zs`` is sorted, and ``ps`` lists
    the exponents in its order.  When every exponent is 1.0 (the test
    :func:`~geoseq.summability._modular_terms` uses), phi' is M' and M is
    not evaluated.  Each side sums to ``inf`` at most; two give 0.
    """
    unit = ps.count(1.0) == len(ps)

    def side(us: list, qs: list) -> float:
        ds = orlicz.derivative_many(us)
        if not unit:  # phi' = p M**(p - 1) M'
            ms = orlicz.eval_many(us)
            ds = [p * _pow_sat(m, p - 1.0) * d for p, m, d in zip(qs, ms, ds)]
        return _fsum_sat(ds)

    k = bisect_right(zs, c)
    up = side([(c - v) / scale for v in zs[:k]], ps[:k])
    down = side([(v - c) / scale for v in zs[k:]], ps[k:])
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
    above 1 almost put a kink in h at each term).  The final window's
    exponents are read in one pass, ``Exponents._over(window)``, and sorted
    with its terms; exponents below 1 make h non-convex, so the search
    raises them to 1.  A final window of one value is its own centre; one
    whose range overflows gets the midpoint 0.5 lo + 0.5 hi.
    """
    ks = spec.lam.window(len(z))
    zs = [z[k - 1] for k in ks]
    ps = [max(p, 1.0) for p in spec.exponents._over(ks)]
    kinked = [v for v, p in zip(zs, ps) if p == 1.0]
    if len(kinked) == len(zs):  # all exponents 1.0: the order of ps holds
        zs = sorted(zs)
    else:
        zs, ps = map(list, zip(*sorted(zip(zs, ps))))
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
            return _fsum_sat(_modular_terms(zs, ps, spec.orlicz, spec.rho, c))

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
    return _classify(windowed_logs(x, spec.transform), spec, tols)


def _classify(z: Sequence[float], spec: SpaceSpec, tols: Tolerances) -> MembershipReport:
    """:func:`classify_membership` on the windowed view ``z`` of x under
    ``spec.transform``, for callers that already hold it."""
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
    # copied before the trace: made after it, the copy raised the peak RSS
    # of a 32,000-window analyze by 1.7 MB
    lam_values = spec.lam.head(m)
    verdict, center, values, slope = _verdict(z, spec, tols)
    return MembershipReport(
        verdict=verdict,
        window_values=values,
        lambda_values=lam_values,
        tail_slope=_tail_slope(values) if slope is None else slope,
        params_used=params,
        limit_estimate=GeoScalar.from_log(center) if spec.variant == "limit" else None,
    )


def _verdict(
    z: Sequence[float], spec: SpaceSpec, tols: Tolerances, values: Optional[list] = None
) -> tuple:
    """(verdict, centre, window values, tail slope) of :func:`_classify`
    on the view ``z``, without its report: the centre is the estimated
    log-limit of the limit variant and 0.0 otherwise, the slope is None
    unless the verdict fitted it, and a truncation too short for a
    verdict is inconclusive with no values.  A caller that holds the
    window trace around 0.0 passes it as ``values`` (never for the limit
    variant), and it is not computed again."""
    m = len(z)
    if _short_truncation(m, tols) is not None:
        return INCONCLUSIVE, 0.0, [], None
    center = _estimate_limit(z, spec) if spec.variant == "limit" else 0.0
    if values is None:
        values = modular_trace(z, spec.lam, spec.orlicz, spec.exponents, spec.rho, center)
    if spec.variant != "bounded":
        verdict, slope = _decide_vanishing(values, tols)
        return verdict, center, values, slope
    # growth test robust to the noise of a stabilising trace: the last
    # quarter of windows must not sit well above the second
    q2 = _median(values[m // 4 : m // 2])
    q4 = _median(values[3 * m // 4 :])
    growing = q4 > 1.5 * q2 + 1e-12
    verdict = BOUNDED if max(values) < tols.bound_cap and not growing else DIVERGING
    return verdict, center, values, None
