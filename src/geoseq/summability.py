"""Windowed summability machinery: means, modulars, window traces, paranorm.

The membership verdicts on a trace are in :mod:`geoseq.membership`.

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
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, repeat
from operator import sub, truediv
from typing import Optional, Sequence

from .geometric import GEO_ZERO, GeoScalar, GeoSequence
from .orlicz import (
    _MAX_PROBES,
    OrliczFunction,
    _check_kind,
    _KindRecord,
    _fsum_sat,
    _pow_sat,
    bracket_scale,
)
from .record import FrozenRecord

__all__ = [
    "LambdaSequence",
    "Exponents",
    "SpaceSpec",
    "Tolerances",
    "ParanormResult",
    "vp_mean",
    "windowed_logs",
    "window_sums",
    "modular_mean",
    "modular_trace",
    "modular_window",
    "window_trace",
    "paranorm",
]

_LAMBDAS = {"identity": (), "half": (), "sqrt": (), "custom": ("values",)}


class LambdaSequence(_KindRecord):
    """The window-generating sequence lam(1), lam(2), ...

    Built-in kinds are lazy formulas valid for every n; ``custom`` wraps
    an explicit list validated against the admissibility invariants:
    lam(1) = 1, non-decreasing, lam(n+1) <= lam(n) + 1, and growth on the
    truncation (lam(N) >= lam(N/2) + 1).  Non-integer values are allowed;
    windows are the integer lattice inside [n - lam(n) + 1, n].
    """

    _PARAMS = _LAMBDAS
    values = None

    def __init__(self, kind: str, values: Optional[Sequence[float]] = None):
        _check_kind("lambda", _LAMBDAS, kind, values=values)
        self.kind = kind
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
        return range(_window_start(n, self.at(n)), n + 1)

    def _plan(self, m: int, one):
        """lam(1), ..., lam(m) of a formula kind, as ints or floats as ``one``
        is 1 or 1.0: the value k holds for 1 (identity), 2 (half) or 2k - 1
        (sqrt: ceil(sqrt(n)) = k on (k-1)**2 < n <= k**2) consecutive n."""
        if self.kind == "identity":
            return islice(count(one), m)
        runs = repeat(2) if self.kind == "half" else count(1, 2)
        return islice(chain.from_iterable(map(repeat, count(one), runs)), m)

    # (m, starts, head) of the last m asked for
    _last_plan = (None, (), ())

    def _window_plan(self, m: int) -> tuple:
        """(m, starts, head): ``starts[n-1]`` is ``window(n).start - 1``
        (n - lam(n) for the formula kinds) and ``head[n-1]`` is lam(n) as a
        float, both built in one pass of the kind's formula or ``values``.

        The plan of the last m asked for is kept in one attribute that is
        replaced whole, so a caller that sweeps m holds one plan at a time
        and no lock is needed.  Its lists are shared: callers read them.
        """
        plan = self._last_plan
        if plan[0] != m:
            if self.kind != "custom":
                head = list(self._plan(m, 1.0))
                starts = list(map(sub, range(1, m + 1), self._plan(m, 1)))
            elif m > len(self.values):  # the error at() raises for the first missing n
                LambdaSequence.at(self, len(self.values) + 1)
            else:
                head = list(self.values[:m])
                starts = [_window_start(n, v) - 1 for n, v in enumerate(head, 1)]
            plan = self._last_plan = (m, starts, head)
        return plan

    def head(self, m: int) -> list:
        """[lam(1), ..., lam(m)] as a fresh list, from the window plan;
        :meth:`at` is not asked."""
        return self._window_plan(m)[2][:]

    def windows(self, m: int) -> list:
        """[I(1), ..., I(m)], equal to :meth:`window` for each n."""
        return [range(s + 1, n + 1) for n, s in enumerate(self._starts(m), 1)]

    def _starts(self, m: int) -> list:
        """[n - lam(n) for n = 1..m]: I(n) is range(starts[n-1] + 1, n + 1).

        This is the window plan's shared list, for every kind.  Only a
        subclass that overrides :meth:`window` is asked, once per n, so a
        counting subclass sees every window; :meth:`at` is not asked.
        """
        if type(self).window is not LambdaSequence.window:
            return [self.window(n).start - 1 for n in range(1, m + 1)]
        return self._window_plan(m)[1]


def _window_start(n: int, lam_n: float) -> int:
    """The first index of I(n), given lam(n)."""
    return max(0, math.ceil(n - lam_n + 1.0 - 1e-12))


_EXPONENTS = {"constant": ("value",), "list": ("values",), "formula": ("c", "d")}


class Exponents(_KindRecord):
    """The strictly positive, bounded exponent sequence p(1), p(2), ...

    ``sup`` and ``inf`` are the analytic bounds of the chosen kind, not a
    truncation's extremes; ``H`` is max(1, sup p) and ``B`` is
    max(1, 2**(H-1)).
    """

    _PARAMS = _EXPONENTS
    value = values = c = d = None

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
        if kind == "constant":
            v = float(value)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"constant exponent must be positive, got {value!r}")
            self.value = self.sup = self.inf = v
        elif kind == "list":
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ValueError("exponent list must be nonempty")
            if any((not math.isfinite(v)) or v <= 0 for v in vals):
                raise ValueError("exponents must be positive and finite")
            self.values = vals
            self.sup, self.inf = max(vals), min(vals)
        else:
            # p(k) = c + d/k
            self.c = float(c)
            self.d = float(d)
            if not (math.isfinite(self.c) and math.isfinite(self.d)):
                raise ValueError("formula coefficients must be finite")
            if self.c <= 0 or self.c + self.d <= 0:
                raise ValueError("formula exponents must stay positive")
            ends = (self.c, self.c + self.d)
            self.sup, self.inf = max(ends), min(ends)
        self.H = max(1.0, self.sup)
        if self.H >= 1025.0:  # 2**(H - 1) would leave double range
            raise ValueError(f"the bound B = 2**(sup p - 1) needs sup p < 1025, got {self.sup!r}")
        self.B = max(1.0, 2.0 ** (self.H - 1.0))

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
        """p(k) for one index k >= 1; the traces read :meth:`_over`."""
        if k < 1:
            raise ValueError(f"exponent index must be >= 1, got {k}")
        return self._over(range(k, k + 1))[0]

    def _over(self, ks: range) -> list:
        """[p(k) for k in ks] in one pass of the kind's formula or ``values``;
        ``ks`` holds indices k >= 1.  A list shorter than ``ks.stop - 1``
        raises for its first missing index in ``ks``."""
        if self.kind == "constant":
            return [self.value] * len(ks)
        if self.kind == "formula":
            return [self.c + self.d / k for k in ks]
        n = len(self.values)
        if ks.stop - 1 > n:
            raise ValueError(
                f"exponent index {max(ks.start, n + 1)} beyond list of length {n}"
            )
        return list(self.values[ks.start - 1 : ks.stop - 1])


_VARIANTS = ("zero", "limit", "bounded")
_TRANSFORMS = ("identity", "fhat")


# a dataclass still: bench/tracing.py copies specs with dataclasses.replace
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


class Tolerances(FrozenRecord):
    """Decision knobs for the empirical verdicts."""

    __slots__ = ("tol", "window_count", "bound_cap")

    def __init__(self, tol: float = 1e-6, window_count: int = 10, bound_cap: float = 1e9):
        tol_f, cap = float(tol), float(bound_cap)
        if not (math.isfinite(tol_f) and tol_f >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
        n = window_count
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"window_count must be an integer >= 1, got {n!r}")
        if not cap > 0.0:  # NaN fails too
            raise ValueError(f"bound_cap must be > 0, got {bound_cap!r}")
        super().__init__(tol_f, n, cap)

    def describe(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


class ParanormResult(FrozenRecord):
    """Scale infimum and paranorm value at truncation scale.

    ``g_geo`` is the geometric value e**g; it is None when not even the
    largest finite double is an admissible scale (infinite paranorm
    marker, ``math.isinf(g)``).  ``probes``, ``bracket`` (lo, hi) and
    ``constraint_at_hi`` describe the solve (see
    :class:`~geoseq.orlicz.ScaleBracket`); reports do not print them.  The
    zero sequence needs no solve: 0 probes, no bracket.
    """

    __slots__ = ("rho_star", "g", "g_geo", "probes", "bracket", "constraint_at_hi")
    _defaults = {"probes": 0, "bracket": None, "constraint_at_hi": None}


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
        from .fibonacci import _transformed_rows

        return _transformed_rows(x.logs, 1)
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


def _rounded(totals: list, s: int) -> list:
    """Each ``totals[i] / 2**s`` correctly rounded; ``inf`` beyond range.

    For s <= 1022 every nonzero integer total t has a normal quotient
    (|t| / 2**s >= 2**-1022), so ``float(t)`` rounds once and the scaling
    by 2**-s is exact: ``ldexp(float(t), -s)`` is ``t / 2**s`` bit for bit.
    A total whose float leaves double range, and any s > 1022, where a
    quotient can be subnormal and the scaling itself would round, take the
    big-integer division, one total at a time.
    """
    if s <= 1022:
        try:
            return list(map(math.ldexp, map(float, totals), repeat(-s)))
        except OverflowError:
            pass
    denom = 1 << s
    out = []
    for t in totals:
        try:
            out.append(t / denom)
        except OverflowError:
            out.append(math.inf if t > 0 else -math.inf)
    return out


def _modular_terms(
    zs: Sequence[float], ps: list, orlicz: OrliczFunction, scale: float, center: float
) -> list:
    """[M(|z - center| / scale) ** p] over aligned ``zs`` and exponents ``ps``.

    M is evaluated by one ``eval_many`` call; the power is skipped when
    every exponent is 1.0 (``m ** 1.0 == m`` for every float), and a list
    whose power overflows is redone with the saturating form, so a term
    beyond double range is ``inf``.
    """
    ts = map(abs, map(sub, zs, repeat(center)))
    if scale != 1.0:  # t / 1.0 == t for every float
        ts = map(truediv, ts, repeat(scale))
    ms = orlicz.eval_many(list(ts))
    if ps.count(1.0) == len(ps):
        return ms
    try:
        return list(map(pow, ms, ps))
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
    All-integer input gives exact ``int`` sums.  The window starts come
    from the window plan, which each lambda of every kind keeps for the
    last m it was asked for; ``lam.window(n)``, which must end at n, is
    called once per window only for a subclass that overrides ``window``.
    """
    starts = lam._starts(len(values))
    if all(map(isinstance, values, repeat(int))):
        return _differences(values, starts)
    ints, s, pos, neg = _exact_terms(values)
    sums = _rounded(_differences(ints, starts), s)
    if pos is not None:
        up, down = _differences(pos, starts), _differences(neg, starts)
        for n, (u, d) in enumerate(zip(up, down), 1):
            if u and d:
                raise ValueError(f"window_sums: window {n} holds both inf and -inf")
            if u or d:
                sums[n - 1] = math.inf if u else -math.inf
    return sums


def _window_means(values: Sequence, lam: LambdaSequence) -> list:
    """:func:`window_sums` divided by lam(n), read from the window plan."""
    head = lam._window_plan(len(values))[2]
    return list(map(truediv, window_sums(values, lam), head))


def vp_mean(x: Sequence[float], n: int, lam: LambdaSequence) -> float:
    """Windowed mean (1/lam(n)) * sum of x over I(n): the last of the
    window means of ``x[:n]``, as floats.

    The input list is 1-indexed data: ``x[0]`` holds the term with index
    1, matching the classical convention that windowed sums start at 1.
    The sum is exact and rounded once, as :func:`window_sums` makes it: a
    window sum beyond double range is ``inf``, and a NaN among ``x[:n]``,
    or ``inf`` and ``-inf`` in one window up to n, raises ``ValueError``.
    """
    if n < 1 or n > len(x):
        raise ValueError(f"window index {n} out of range for {len(x)} terms")
    return _window_means(list(map(float, x[:n])), lam)[-1]


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
    terms = _modular_terms(zs, exponents._over(ks), orlicz, scale, center)
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
    ps = exponents._over(range(1, len(z) + 1))
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


def paranorm(
    x: GeoSequence,
    spec: SpaceSpec,
    rel_tol: float = 1e-11,
    max_iter: int = _MAX_PROBES,
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

    ps = spec.exponents._over(range(1, len(z) + 1))

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


def __getattr__(name: str):
    # bench/tracing.py imports these two from here; they live in membership
    if name in ("CONVERGING", "classify_membership"):
        from . import membership

        return getattr(membership, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
