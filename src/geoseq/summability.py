"""Windowed summability machinery: means, modulars, membership, paranorm.

Window n covers the integer indices I(n) = [n - lam(n) + 1, n], where the
window-generating sequence lam is non-decreasing, starts at lam(1) = 1,
grows by at most 1 per step and tends to infinity.  Because lam(n) <= n
always, windows only ever contain indices k >= 1.

Indexing convention (load-bearing, used consistently everywhere):

* The *windowed view* z of a geometric sequence x is 1-indexed: window
  index k refers to ``z[k-1]`` in storage.
* With ``transform="identity"`` the windowed view is the whole log-view
  of x, so the first stored term is z(1).
* With ``transform="fhat"`` the windowed view consists of the banded
  difference transform's rows 1, 2, ... of the 0-indexed x; row 0 is the
  boundary row of the matrix and is never windowed.  That is exactly why
  the transform's kernel (which is non-constant but has vanishing rows
  beyond the boundary) receives paranorm 0: the witness that the
  paranorm is not total.

All geometric conditions are evaluated classically through the log-view:
the geometric scale rho > 1 becomes the classical scale r = ln rho > 0
(the ``rho`` field below is already the classical value), geometric
convergence to 1 becomes convergence to 0, and the threshold "<= e"
becomes "<= 1".
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, gt, lt, mul, sub, truediv
from typing import Optional, Sequence, Tuple

from .fibonacci import difference_transform_log
from .geometric import GEO_ZERO, GeoScalar, GeoSequence
from .orlicz import OrliczFunction, _check_kind, _fsum_sat, _pow_sat, _zeroin, bracket_scale

__all__ = [
    "LambdaSequence",
    "Exponents",
    "SpaceSpec",
    "Tolerances",
    "MembershipReport",
    "ParanormResult",
    "window",
    "vp_mean",
    "windowed_logs",
    "window_sums",
    "modular_mean",
    "modular_trace",
    "modular_window",
    "window_trace",
    "classify_membership",
    "paranorm",
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


_LAMBDAS = {"identity": (), "half": (), "sqrt": (), "custom": ("values",)}


class LambdaSequence:
    """The window-generating sequence lam(1), lam(2), ...

    Built-in kinds are lazy formulas valid for every n; ``custom`` wraps
    an explicit list validated against the admissibility invariants:
    lam(1) = 1, non-decreasing, lam(n+1) <= lam(n) + 1, and growth on the
    truncation (lam(N) >= lam(N/2) + 1).  Non-integer values are allowed;
    windows are the integer lattice inside [n - lam(n) + 1, n].
    """

    def __init__(self, kind: str, values: Optional[Sequence[float]] = None):
        _check_kind("lambda", _LAMBDAS, kind, values=values)
        self.kind = kind
        self.values = None
        if kind == "custom":
            vals = [float(v) for v in values]
            self._validate(vals)
            self.values = tuple(vals)

    @staticmethod
    def _validate(vals: Sequence[float]) -> None:
        n = len(vals)
        if n == 0:
            raise ValueError("lambda sequence must be nonempty")
        if abs(vals[0] - 1.0) > 1e-12:
            raise ValueError(f"lambda must start at 1, got {vals[0]!r}")
        for i in range(n - 1):
            if vals[i + 1] < vals[i] - 1e-12:
                raise ValueError(f"lambda must be non-decreasing (index {i + 2})")
            if vals[i + 1] > vals[i] + 1.0 + 1e-12:
                raise ValueError(
                    f"lambda may grow by at most 1 per step (index {i + 2})"
                )
        if not all(map(math.isfinite, vals)):  # with the steps above, also positive
            raise ValueError("lambda values must be finite")
        if n >= 4 and vals[n - 1] < vals[n // 2 - 1] + 1.0 - 1e-9:
            raise ValueError("lambda must keep growing on the truncation")

    @classmethod
    def identity(cls) -> "LambdaSequence":
        return cls("identity")

    @classmethod
    def half(cls) -> "LambdaSequence":
        return cls("half")

    @classmethod
    def sqrt(cls) -> "LambdaSequence":
        return cls("sqrt")

    @classmethod
    def custom(cls, values: Sequence[float]) -> "LambdaSequence":
        return cls("custom", values)

    def at(self, n: int) -> float:
        """lam(n) for window index n >= 1."""
        if n < 1:
            raise ValueError(f"window index must be >= 1, got {n}")
        if self.kind == "identity":
            return float(n)
        if self.kind == "half":
            return float((n + 1) // 2)
        if self.kind == "sqrt":
            return float(math.isqrt(n - 1) + 1)  # ceil(sqrt(n)), exact
        if n > len(self.values):
            raise ValueError(
                f"window index {n} beyond custom lambda of length {len(self.values)}"
            )
        return self.values[n - 1]

    def window(self, n: int) -> range:
        """I(n) = integer k with n - lam(n) + 1 <= k <= n (and k >= 0)."""
        lam_n = self.at(n)
        lo = max(0, math.ceil(n - lam_n + 1.0 - 1e-12))
        return range(lo, n + 1)

    def _builtin(self, *methods: str) -> bool:
        # a formula kind whose named methods are not overridden
        return self.kind != "custom" and all(
            getattr(type(self), name) is getattr(LambdaSequence, name)
            for name in methods
        )

    def _plan(self, m: int, one):
        """lam(1), ..., lam(m) of a built-in kind, as ints or floats as ``one``
        is 1 or 1.0: the value k holds for 1 (identity), 2 (half) or 2k - 1
        (sqrt: ceil(sqrt(n)) = k on (k-1)**2 < n <= k**2) consecutive n."""
        if self.kind == "identity":
            return islice(count(one), m)
        runs = repeat(2) if self.kind == "half" else count(1, 2)
        return islice(chain.from_iterable(map(repeat, count(one), runs)), m)

    def head(self, m: int) -> list:
        """[lam(1), ..., lam(m)]: one iterator pass for the built-in kinds.

        ``custom`` lambdas, and subclasses that override :meth:`at`, are
        asked once per n.
        """
        if not self._builtin("at"):
            return list(map(self.at, range(1, m + 1)))
        return list(self._plan(m, 1.0))

    def windows(self, m: int) -> list:
        """[I(1), ..., I(m)], equal to :meth:`window` for each n.

        ``custom`` lambdas, and subclasses that override :meth:`window` or
        :meth:`at`, call :meth:`window` once per n.
        """
        if not self._builtin("at", "window"):
            return list(map(self.window, range(1, m + 1)))
        return [range(s + 1, n + 1) for n, s in enumerate(self._starts(m), 1)]

    def _starts(self, m: int) -> list:
        """[n - lam(n) for n = 1..m]: I(n) is range(starts[n-1] + 1, n + 1)."""
        if not self._builtin("at", "window"):
            return [w.start - 1 for w in self.windows(m)]
        return list(map(sub, range(1, m + 1), self._plan(m, 1)))

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.values is not None:
            d["values"] = list(self.values)
        return d


def window(n: int, lam: LambdaSequence) -> range:
    """Module-level convenience for :meth:`LambdaSequence.window`."""
    return lam.window(n)


def vp_mean(x: Sequence[float], n: int, lam: LambdaSequence) -> float:
    """Windowed mean (1/lam(n)) * sum of x over I(n).

    The input list is 1-indexed data: ``x[0]`` holds the term with index
    1, matching the classical convention that windowed sums start at 1.
    """
    if n < 1 or n > len(x):
        raise ValueError(f"window index {n} out of range for {len(x)} terms")
    ks = lam.window(n)
    return math.fsum(float(x[k - 1]) for k in ks) / lam.at(n)


_EXPONENTS = {"constant": ("value",), "list": ("values",), "formula": ("c", "d")}


class Exponents:
    """The strictly positive, bounded exponent sequence p(1), p(2), ...

    ``H`` is max(1, sup p) and ``B`` is max(1, 2**(H-1)); both use the
    analytic supremum of the chosen kind, not a truncation maximum.
    """

    def __init__(
        self,
        kind: str,
        value: Optional[float] = None,
        values: Optional[Sequence[float]] = None,
        c: Optional[float] = None,
        d: Optional[float] = None,
    ):
        _check_kind("exponent", _EXPONENTS, kind, value=value, values=values, c=c, d=d)
        self.kind = kind
        self.value = None
        self.values = None
        self.c = None
        self.d = None
        if kind == "constant":
            v = float(value)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"constant exponent must be positive, got {value!r}")
            self.value = v
        elif kind == "list":
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ValueError("exponent list must be nonempty")
            if any((not math.isfinite(v)) or v <= 0 for v in vals):
                raise ValueError("exponents must be positive and finite")
            self.values = vals
        else:
            # p(k) = c + d/k
            self.c = float(c)
            self.d = float(d)
            if not (math.isfinite(self.c) and math.isfinite(self.d)):
                raise ValueError("formula coefficients must be finite")
            if self.c <= 0 or self.c + self.d <= 0:
                raise ValueError("formula exponents must stay positive")

    @classmethod
    def constant(cls, value: float) -> "Exponents":
        return cls("constant", value=value)

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "Exponents":
        return cls("list", values=values)

    @classmethod
    def formula(cls, c: float, d: float) -> "Exponents":
        return cls("formula", c=c, d=d)

    def at(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"exponent index must be >= 1, got {k}")
        if self.kind == "constant":
            return self.value
        if self.kind == "formula":
            return self.c + self.d / k
        if k > len(self.values):
            raise ValueError(
                f"exponent index {k} beyond list of length {len(self.values)}"
            )
        return self.values[k - 1]

    @property
    def sup(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "formula":
            return max(self.c, self.c + self.d)
        return max(self.values)

    @property
    def inf(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "formula":
            return min(self.c, self.c + self.d)
        return min(self.values)

    @property
    def H(self) -> float:
        return max(1.0, self.sup)

    @property
    def B(self) -> float:
        return max(1.0, 2.0 ** (self.H - 1.0))

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "formula":
            return {"kind": "formula", "c": self.c, "d": self.d}
        return {"kind": "list", "values": list(self.values)}


_VARIANTS = ("zero", "limit", "bounded")
_TRANSFORMS = ("identity", "fhat")


@dataclass(frozen=True)
class SpaceSpec:
    """Parameterisation of one windowed modular sequence space.

    ``rho`` is the classical denominator scale, i.e. the logarithm of the
    geometric scale (which the space definitions require to exceed 1), so
    it must be positive.
    """

    lam: LambdaSequence
    orlicz: OrliczFunction
    exponents: Exponents
    variant: str = "zero"
    transform: str = "fhat"
    rho: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.transform not in _TRANSFORMS:
            raise ValueError(
                f"transform must be one of {_TRANSFORMS}, got {self.transform!r}"
            )
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be a positive classical scale, got {self.rho!r}")

    def describe(self) -> dict:
        return {
            "lambda": self.lam.describe(),
            "orlicz": self.orlicz.describe(),
            "exponents": self.exponents.describe(),
            "variant": self.variant,
            "transform": self.transform,
            "rho": self.rho,
        }


@dataclass(frozen=True)
class Tolerances:
    """Decision knobs for the empirical verdicts."""

    tol: float = 1e-6
    window_count: int = 10
    bound_cap: float = 1e9

    def __post_init__(self):
        tol, cap, count = float(self.tol), float(self.bound_cap), self.window_count
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"window_count must be an integer >= 1, got {count!r}")
        if not cap > 0.0:  # NaN fails too
            raise ValueError(f"bound_cap must be > 0, got {self.bound_cap!r}")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "bound_cap", cap)

    def describe(self) -> dict:
        return {
            "tol": self.tol,
            "window_count": self.window_count,
            "bound_cap": self.bound_cap,
        }


@dataclass
class MembershipReport:
    """Empirical verdict for one truncation.

    A truncation can never prove membership; the full window trace is
    returned so callers can judge the evidence themselves.
    """

    verdict: str
    window_values: list
    lambda_values: list
    tail_slope: float
    params_used: dict
    limit_estimate: Optional[GeoScalar] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class ParanormResult:
    """Scale infimum and paranorm value at truncation scale.

    ``g_geo`` is the geometric value e**g; it is None when not even the
    largest finite double is an admissible scale (infinite paranorm
    marker, ``math.isinf(g)``).  ``probes``, ``bracket`` (lo, hi) and
    ``constraint_at_hi`` describe the solve (see
    :class:`~geoseq.orlicz.ScaleBracket`); reports do not print them.  The
    zero sequence needs no solve: 0 probes, no bracket.
    """

    rho_star: float
    g: float
    g_geo: Optional[GeoScalar]
    probes: int = 0
    bracket: Optional[Tuple[float, float]] = None
    constraint_at_hi: Optional[float] = None


def windowed_logs(x: GeoSequence, transform: str) -> list:
    """The 1-indexed windowed view of x under the chosen transform.

    identity: the whole log-view (first stored term is z(1));
    fhat: rows 1.. of the banded difference transform (boundary row 0
    excluded -- windows can never reach it).  A row that leaves double
    range raises :class:`GeoRangeError` from
    :func:`~geoseq.fibonacci.difference_transform_log`.
    """
    if transform == "identity":
        return x.to_log()
    if transform == "fhat":
        return difference_transform_log(x.to_log())[1:]
    raise ValueError(f"unknown transform {transform!r}")


def _exact_terms(values: Sequence) -> tuple:
    """(ints, s, pos, neg): exact integer images of the terms at one scale.

    Every finite term equals ``ints[i] / 2**s`` exactly; ``s`` comes from
    the smallest binary exponent among the nonzero finite terms, clamped
    to [0, 1074] (2**1074 makes every double an integer).  An infinite
    term contributes 0 to ``ints`` and is flagged 1 in ``pos`` (+inf) or
    ``neg`` (-inf); both are None when every term is finite.  A NaN term
    raises ``ValueError``.
    """
    xs = list(map(float, values))
    mags = list(map(abs, xs))
    pos = neg = None
    if not math.isfinite(sum(mags)) and not all(map(math.isfinite, xs)):
        for i, v in enumerate(xs, 1):
            if math.isnan(v):
                raise ValueError(f"window_sums: term {i} is NaN")
        pos = [int(v == math.inf) for v in xs]
        neg = [int(v == -math.inf) for v in xs]
        xs = [v if math.isfinite(v) else 0.0 for v in xs]
        mags = list(map(abs, xs))
    lo = min(filter(None, mags), default=0.0)
    if lo == 0.0:
        return [0] * len(xs), 0, pos, neg
    s = min(1074, max(0, 53 - math.frexp(lo)[1]))
    if math.frexp(max(mags))[1] + s <= 1024:
        ints = list(map(int, map(math.ldexp, xs, repeat(s))))
    else:  # the scaled largest term would overflow a double
        ints = [(num << s) // den for num, den in map(float.as_integer_ratio, xs)]
    return ints, s, pos, neg


def _differences(terms: list, starts: list) -> list:
    """Exact sum of ``terms`` over each window, from prefix sums at ``starts``."""
    prefix = list(accumulate(terms, initial=0))
    return list(map(sub, islice(prefix, 1, None), map(prefix.__getitem__, starts)))


def _rounded(totals: list, denom: int) -> list:
    """Each ``totals[i] / denom`` correctly rounded; ``inf`` beyond range."""
    try:
        return list(map(truediv, totals, repeat(denom)))
    except OverflowError:
        pass
    out = []
    for t in totals:
        try:
            out.append(t / denom)
        except OverflowError:
            out.append(math.inf if t > 0 else -math.inf)
    return out


def _exponent_values(exponents: Exponents, ks: range):
    """p_k for k in ks: one float for constant exponents, else a list."""
    if exponents.kind == "constant":
        return exponents.value
    return list(map(exponents.at, ks))


def _modular_terms(
    zs: Sequence[float], ps, orlicz: OrliczFunction, scale: float, center: float
) -> list:
    """[M(|z - center| / scale) ** p] over aligned ``zs`` and ``ps``.

    ``ps`` is a list of exponents or one float for all terms (see
    :func:`_exponent_values`).  M is evaluated by one ``eval_many`` call;
    the power is skipped for the exponent 1.0 (``m ** 1.0 == m`` for
    every float), and a list whose power overflows is redone with the
    saturating form, so a term beyond double range is ``inf``.
    """
    ts = map(abs, map(sub, zs, repeat(center)))
    if scale != 1.0:  # t / 1.0 == t for every float
        ts = map(truediv, ts, repeat(scale))
    ms = orlicz.eval_many(list(ts))
    if ps == 1.0:
        return ms
    qs = repeat(ps) if isinstance(ps, float) else ps
    try:
        return list(map(pow, ms, qs))
    except OverflowError:
        return list(map(_pow_sat, ms, qs))


def window_sums(values: Sequence, lam: LambdaSequence) -> list:
    """Sum of ``values[k-1]`` over I(n) for every window n = 1..len(values).

    Exact and O(m): every term is read once and turned into an exact
    integer (floats scaled by one power of two), so each window sum is
    the difference of two exact prefix sums, rounded once.  A float
    window sum therefore equals ``math.fsum`` over that window bit for
    bit; where the exact sum leaves double range it is ``inf`` (with its
    sign).  A window holding an infinite term sums to that infinity, one
    holding both ``inf`` and ``-inf`` or any NaN raises ``ValueError``.
    All-integer input gives exact ``int`` sums.  The window starts come
    from the built-in kinds' window plan; ``lam.window(n)``, which must end
    at n, is called once per window only for ``custom`` lambdas and for
    subclasses that override ``window`` or ``at``.
    """
    starts = lam._starts(len(values))
    if all(map(isinstance, values, repeat(int))):
        return _differences(values, starts)
    ints, s, pos, neg = _exact_terms(values)
    sums = _rounded(_differences(ints, starts), 1 << s)
    if pos is not None:
        up, down = _differences(pos, starts), _differences(neg, starts)
        for n, (u, d) in enumerate(zip(up, down), 1):
            if u and d:
                raise ValueError(f"window_sums: window {n} holds both inf and -inf")
            if u or d:
                sums[n - 1] = math.inf if u else -math.inf
    return sums


def _window_means(values: Sequence, lam: LambdaSequence, head=None) -> list:
    """:func:`window_sums` divided by lam(n); ``head`` is ``lam.head(len(values))``."""
    return list(map(truediv, window_sums(values, lam), head or lam.head(len(values))))


def modular_mean(
    z: Sequence[float],
    lam: LambdaSequence,
    orlicz: OrliczFunction,
    exponents: Exponents,
    scale: float,
    n: int,
    center: float = 0.0,
) -> float:
    """(1/lam(n)) * sum over I(n) of [M(|z_k - center| / scale)]**p_k.

    ``z`` is the 1-indexed windowed view (``z[k-1]`` is term k).  The
    window sum is ``math.fsum``, exact and rounded once (``inf`` when it
    leaves double range), so it equals :func:`modular_trace` bit for bit.
    """
    if n < 1 or n > len(z):
        raise ValueError(f"window index {n} out of range for {len(z)} terms")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    ks = lam.window(n)
    zs = [z[k - 1] for k in ks]
    terms = _modular_terms(zs, _exponent_values(exponents, ks), orlicz, scale, center)
    return _fsum_sat(terms) / lam.at(n)


def modular_trace(
    z: Sequence[float],
    lam: LambdaSequence,
    orlicz: OrliczFunction,
    exponents: Exponents,
    scale: float,
    center: float = 0.0,
) -> list:
    """:func:`modular_mean` for every window n = 1..len(z), bit for bit.

    M is evaluated once per term, not once per term per window, and the
    window sums come from :func:`window_sums`: exact, rounded once, O(m).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    ps = _exponent_values(exponents, range(1, len(z) + 1))
    return _window_means(_modular_terms(z, ps, orlicz, scale, center), lam)


def modular_window(
    x: GeoSequence, spec: SpaceSpec, n: int, ell: Optional[GeoScalar] = None
) -> float:
    """Windowed modular S(n) of x under spec; the geometric value is e**S(n).

    ``ell`` is honoured only for the "limit" variant (the other variants
    measure distance from the geometric zero 1).
    """
    center = ell.log if (spec.variant == "limit" and ell is not None) else 0.0
    z = windowed_logs(x, spec.transform)
    return modular_mean(z, spec.lam, spec.orlicz, spec.exponents, spec.rho, n, center)


def window_trace(
    x: GeoSequence, spec: SpaceSpec, ell: Optional[GeoScalar] = None
) -> list:
    """S(n) for every computable window n = 1..len(windowed view)."""
    z = windowed_logs(x, spec.transform)
    center = ell.log if (spec.variant == "limit" and ell is not None) else 0.0
    return modular_trace(z, spec.lam, spec.orlicz, spec.exponents, spec.rho, center)


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


def paranorm(
    x: GeoSequence,
    spec: SpaceSpec,
    rel_tol: float = 1e-11,
    max_iter: int = 200,
) -> ParanormResult:
    """Luxemburg-style paranorm of the vanishing-variant space.

    rho_star = inf{r > 0 : sup_n S_n(r) <= 1} over the windows computable
    on the truncation, found by :func:`~geoseq.orlicz.bracket_scale` to
    ``rel_tol``; it is equivalent to the rooted form sup_n S_n(r)**(1/H) <= 1
    (s**(1/H) <= 1 exactly when s <= 1; in floating point the root could
    also round a sum an ulp above 1 down to 1.0), so the root is taken only
    in g.  The constraint is non-increasing in r; that is checked at every
    probe (raises :class:`ScaleSolverError`).  g = rho_star**(pbar/H) with
    pbar = inf p; g_geo = e**g.  The zero sequence gets g = 0.
    """
    if spec.variant != "zero":
        raise ValueError("paranorm is defined on the vanishing variant")
    z = windowed_logs(x, spec.transform)
    if not z or max(map(abs, z)) == 0.0:
        return ParanormResult(rho_star=0.0, g=0.0, g_geo=GEO_ZERO)

    ps = _exponent_values(spec.exponents, range(1, len(z) + 1))

    def sup_constraint(r: float) -> float:
        return max(_window_means(_modular_terms(z, ps, spec.orlicz, r, 0.0), spec.lam))

    solve = bracket_scale(sup_constraint, rel_tol, max_iter)
    g = solve.hi ** (spec.exponents.inf / spec.exponents.H)  # inf stays inf
    return ParanormResult(
        rho_star=solve.hi,
        g=g,
        g_geo=None if math.isinf(g) else GeoScalar.from_log(g),
        probes=solve.probes,
        bracket=(solve.lo, solve.hi),
        constraint_at_hi=solve.g_hi,
    )
