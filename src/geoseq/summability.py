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

import math
import statistics
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional, Sequence

from .fibonacci import difference_transform_log
from .geometric import GEO_ZERO, GeoScalar, GeoSequence
from .orlicz import OrliczFunction, _fsum_sat, _pow_sat, solve_scale

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


class LambdaSequence:
    """The window-generating sequence lam(1), lam(2), ...

    Built-in kinds are lazy formulas valid for every n; ``custom`` wraps
    an explicit list validated against the admissibility invariants:
    lam(1) = 1, non-decreasing, lam(n+1) <= lam(n) + 1, and growth on the
    truncation (lam(N) >= lam(N/2) + 1).  Non-integer values are allowed;
    windows are the integer lattice inside [n - lam(n) + 1, n].
    """

    def __init__(self, kind: str, values: Optional[Sequence[float]] = None):
        if kind not in ("identity", "half", "sqrt", "custom"):
            raise ValueError(f"unknown lambda kind {kind!r}")
        self.kind = kind
        self.values = None
        if kind == "custom":
            if values is None:
                raise ValueError("custom lambda needs explicit values")
            vals = [float(v) for v in values]
            self._validate(vals)
            self.values = tuple(vals)
        elif values is not None:
            raise ValueError("built-in lambda kinds take no explicit values")

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
        if any(v <= 0 for v in vals):
            raise ValueError("lambda values must be positive")
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

    def head(self, m: int) -> list:
        """[lam(1), ..., lam(m)]: one pass for the built-in formula kinds.

        ``custom`` lambdas, and subclasses that override :meth:`at`, are
        asked once per n.
        """
        ns = range(1, m + 1)
        if not self._builtin("at"):
            return list(map(self.at, ns))
        if self.kind == "identity":
            return list(map(float, ns))
        if self.kind == "half":
            return [float((n + 1) // 2) for n in ns]
        isqrt = math.isqrt
        return [float(isqrt(n - 1) + 1) for n in ns]

    def windows(self, m: int) -> list:
        """[I(1), ..., I(m)], equal to :meth:`window` for each n.

        The built-in kinds have integer lam(n) <= n, so I(n) starts at
        n - lam(n) + 1, and all windows come from one pass over the
        formula of :meth:`at`.  ``custom`` lambdas, and subclasses that
        override :meth:`window` or :meth:`at`, call :meth:`window` once
        per n.
        """
        ns = range(1, m + 1)
        if not self._builtin("at", "window"):
            return list(map(self.window, ns))
        if self.kind == "identity":
            return [range(1, n + 1) for n in ns]
        if self.kind == "half":  # n - (n + 1) // 2 + 1 == n // 2 + 1
            return [range(n // 2 + 1, n + 1) for n in ns]
        isqrt = math.isqrt
        return [range(n - isqrt(n - 1), n + 1) for n in ns]

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.values is not None:
            d["values"] = list(self.values)
        return d

    @classmethod
    def from_config(cls, cfg: dict) -> "LambdaSequence":
        kind = cfg.get("kind")
        if kind == "custom":
            return cls.custom(cfg["values"])
        return cls(kind)


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
        elif kind == "formula":
            # p(k) = c + d/k
            self.c = float(c)
            self.d = float(d)
            if not (math.isfinite(self.c) and math.isfinite(self.d)):
                raise ValueError("formula coefficients must be finite")
            if self.c <= 0 or self.c + self.d <= 0:
                raise ValueError("formula exponents must stay positive")
        else:
            raise ValueError(f"unknown exponent kind {kind!r}")

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

    @classmethod
    def from_config(cls, cfg: dict) -> "Exponents":
        kind = cfg.get("kind")
        if kind == "constant":
            return cls.constant(cfg["value"])
        if kind == "list":
            return cls.from_list(cfg["values"])
        if kind == "formula":
            return cls.formula(cfg["c"], cfg["d"])
        raise ValueError(f"unknown exponent kind {kind!r}")


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

    ``g_geo`` is the geometric value e**g; it is None when no admissible
    scale exists below the search cap (infinite paranorm marker,
    ``math.isinf(g)``).
    """

    rho_star: float
    g: float
    g_geo: Optional[GeoScalar]


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


def _differences(terms: list, windows: list) -> list:
    """Exact sum of ``terms`` over each window, from prefix sums."""
    prefix = list(accumulate(terms, initial=0))
    return [prefix[w.stop - 1] - prefix[w.start - 1] for w in windows]


def _rounded(totals: list, denom: int) -> list:
    """Each ``totals[i] / denom`` correctly rounded; ``inf`` beyond range."""
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
    if scale == 1.0:  # t / 1.0 == t for every float
        ms = orlicz.eval_many([abs(v - center) for v in zs])
    else:
        ms = orlicz.eval_many([abs(v - center) / scale for v in zs])
    if isinstance(ps, float):
        if ps == 1.0:
            return ms
        ps = [ps] * len(ms)
    try:
        return [m ** p for m, p in zip(ms, ps)]
    except OverflowError:
        return list(map(_pow_sat, ms, ps))


def window_sums(values: Sequence, lam: LambdaSequence) -> list:
    """Sum of ``values[k-1]`` over I(n) for every window n = 1..len(values).

    Exact and O(m): every term is read once and turned into an exact
    integer (floats scaled by one power of two), so each window sum is
    the difference of two exact prefix sums, rounded once.  A float
    window sum therefore equals ``math.fsum`` over that window bit for
    bit; where the exact sum leaves double range it is ``inf`` (with its
    sign).  A window holding an infinite term sums to that infinity, one
    holding both ``inf`` and ``-inf`` or any NaN raises ``ValueError``.
    All-integer input gives exact ``int`` sums.  The windows come from
    :meth:`LambdaSequence.windows`, so ``lam.window(n)`` is called once per
    window only for ``custom`` lambdas and for subclasses that override
    ``window`` or ``at``; the built-in kinds build them in one pass.
    """
    windows = lam.windows(len(values))
    if all(isinstance(v, int) for v in values):
        return _differences(values, windows)
    ints, s, pos, neg = _exact_terms(values)
    sums = _rounded(_differences(ints, windows), 1 << s)
    if pos is not None:
        up, down = _differences(pos, windows), _differences(neg, windows)
        for n, (u, d) in enumerate(zip(up, down), 1):
            if u and d:
                raise ValueError(f"window_sums: window {n} holds both inf and -inf")
            if u or d:
                sums[n - 1] = math.inf if u else -math.inf
    return sums


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
    m = len(z)
    ps = _exponent_values(exponents, range(1, m + 1))
    terms = _modular_terms(z, ps, orlicz, scale, center)
    return [s / lam_n for s, lam_n in zip(window_sums(terms, lam), lam.head(m))]


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
    m = len(values)
    pts = [
        (math.log(n), math.log(values[n - 1]))
        for n in range(max(1, m // 2), m + 1)
        if values[n - 1] > 0 and math.isfinite(values[n - 1])
    ]
    if len(pts) < 3:
        return 0.0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    try:
        return statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError:
        return 0.0


def _decide_vanishing(values: Sequence[float], tols: Tolerances) -> tuple:
    """Verdict for a trace that should tend to zero (or stay bounded)."""
    W = tols.window_count
    last = values[-W:]
    prev = values[-2 * W : -W]
    slope = _tail_slope(values)
    med_last = statistics.median(last)
    med_prev = statistics.median(prev)
    small = all(v <= tols.tol for v in last)
    non_increasing = med_last <= med_prev * 1.1 + 1e-12
    if small and non_increasing:
        return CONVERGING, slope
    if med_last > tols.tol and slope > _FLAT_SLOPE:
        return DIVERGING, slope
    return INCONCLUSIVE, slope


def _estimate_limit(
    z: Sequence[float], spec: SpaceSpec, iters: int = 80
) -> float:
    """Estimated log-limit: tail median refined on the final window.

    The refinement golden-sections the final-window modular, which is
    convex in the center for exponents >= 1.  The window's terms and
    exponents are read once; each probe is the :func:`modular_mean` sum.
    """
    m = len(z)
    tail = list(z[-max(1, math.ceil(m / 4)) :])
    center0 = statistics.median(tail)
    span = max(tail) - min(tail)
    if span == 0.0:
        return center0
    lo = center0 - span
    hi = center0 + span
    ks = spec.lam.window(m)
    zs = [z[k - 1] for k in ks]
    ps = _exponent_values(spec.exponents, ks)
    lam_m = spec.lam.at(m)
    M, r = spec.orlicz, spec.rho

    def h(center: float) -> float:
        return _fsum_sat(_modular_terms(zs, ps, M, r, center)) / lam_m

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(iters):
        if hc <= hd:
            b, d, hd = d, c, hc
            c = b - inv_phi * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + inv_phi * (b - a)
            hd = h(d)
    best = 0.5 * (a + b)
    return best if h(best) <= h(center0) else center0


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
    if m < 4 * tols.window_count:
        return MembershipReport(
            verdict=INCONCLUSIVE,
            window_values=[],
            lambda_values=[],
            tail_slope=0.0,
            params_used=params,
            reason=(
                f"truncation too short: {m} windows < 4 * window_count"
                f" = {4 * tols.window_count}"
            ),
        )
    lam_values = spec.lam.head(m)

    ell = None
    center = 0.0
    if spec.variant == "limit":
        center = _estimate_limit(z, spec)
        ell = GeoScalar.from_log(center)

    values = modular_trace(z, spec.lam, spec.orlicz, spec.exponents, spec.rho, center)

    if spec.variant == "bounded":
        slope = _tail_slope(values)
        peak = max(values)
        # growth test robust to the noise of a stabilising trace: the
        # last quarter of windows must not sit well above the second
        q2 = statistics.median(values[m // 4 : m // 2])
        q4 = statistics.median(values[3 * m // 4 :])
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

    rho_star = inf{r > 0 : sup_n (S_n(r))**(1/H) <= 1} over the windows
    computable on the truncation, found by :func:`solve_scale`.  The
    constraint is non-increasing in r; that is checked at every probe
    (raises :class:`ScaleSolverError`).  g = rho_star**(pbar/H) with
    pbar = inf p; g_geo = e**g.  The zero sequence gets g = 0.
    """
    if spec.variant != "zero":
        raise ValueError("paranorm is defined on the vanishing variant")
    z = windowed_logs(x, spec.transform)
    m = len(z)
    H = spec.exponents.H
    p_bar = spec.exponents.inf

    if m == 0 or max(abs(v) for v in z) == 0.0:
        return ParanormResult(rho_star=0.0, g=0.0, g_geo=GEO_ZERO)

    def sup_constraint(r: float) -> float:
        trace = modular_trace(z, spec.lam, spec.orlicz, spec.exponents, r)
        return max([0.0] + [_pow_sat(s, 1.0 / H) for s in trace])

    rho_star = solve_scale(sup_constraint, rel_tol, max_iter)
    if math.isinf(rho_star):
        return ParanormResult(rho_star=math.inf, g=math.inf, g_geo=None)
    g = rho_star ** (p_bar / H)
    return ParanormResult(rho_star=rho_star, g=g, g_geo=GeoScalar.from_log(g))
