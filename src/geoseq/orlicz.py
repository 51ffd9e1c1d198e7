"""Orlicz functions: the built-in families, and the scale solver.

An Orlicz function M is continuous, convex, non-decreasing on [0, inf)
with M(0) = 0.  Built-in families:

* ``power(p)``        M(t) = t**p, p >= 1
* ``exp_minus_one``   M(t) = e**t - 1
* ``x_log1p``         M(t) = t * ln(1 + t)
* ``table(points)``   piecewise-linear through given knots (convexity is
  then checkable exactly on the slopes; deliberately invalid tables may
  be constructed so the diagnostics of :mod:`geoseq.orlicz_checks` have
  something to catch)

Evaluations saturate to ``inf`` beyond double range instead of raising,
which keeps the monotone constraint maps used by the norm and paranorm
solvers well defined.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from itertools import repeat
from operator import mul
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .record import FrozenRecord

__all__ = [
    "OrliczFunction",
    "DegenerateOrliczError",
    "ScaleBracket",
    "ScaleSolverError",
    "bracket_scale",
]


class DegenerateOrliczError(ValueError):
    """M vanishes on positive arguments where a positive value is required."""


class ScaleSolverError(ArithmeticError):
    """The scale solver failed: the constraint map increased with the scale,
    or ``max_iter`` probes did not close the bracket to ``rel_tol``."""


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


def _check_kind(what: str, params: dict, kind, **given) -> None:
    """Require a key of ``params`` as ``kind``, and exactly its parameters not None."""
    if not isinstance(kind, str) or kind not in params:
        raise ValueError(f"unknown {what} kind {kind!r}")
    for name, value in given.items():
        if (value is None) == (name in params[kind]):
            verb = "needs" if value is None else "takes no"
            raise ValueError(f"{kind} {what} {verb} {name!r}")


class _KindRecord:
    """A record of a ``kind`` and the parameters its ``_PARAMS`` table gives
    that kind (the table :func:`_check_kind` reads): equal, and hashed
    alike, by type, kind and those parameters, and described as the config
    section that builds it again, tuples written as lists.  A dataclass
    (:class:`OrliczFunction`) compares its fields instead, to the same effect.
    """

    def _key(self) -> tuple:
        return type(self), self.kind, *(getattr(self, n) for n in self._PARAMS[self.kind])

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, _KindRecord) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def describe(self) -> dict:
        d = {"kind": self.kind}
        for name in self._PARAMS[self.kind]:
            d[name] = _listed(getattr(self, name))
        return d


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


# the built-in families and the parameters each takes
_FAMILIES = {"power": ("p",), "exp_minus_one": (), "x_log1p": (), "table": ("points",)}


# a dataclass still: bench/tracing.py subclasses it as one (CountingOrlicz),
# so it becomes a plain record once tracing.py counts without subclassing
@dataclass(frozen=True)
class OrliczFunction(_KindRecord):
    """Descriptor plus evaluator for an Orlicz function."""

    _PARAMS = _FAMILIES
    kind: str
    p: Optional[float] = None
    points: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        _check_kind("Orlicz function", _FAMILIES, self.kind, p=self.p, points=self.points)
        if self.kind == "power":
            p = float(self.p)
            if not math.isfinite(p) or p < 1.0:
                raise ValueError(f"power family needs p >= 1, got {p!r}")
            object.__setattr__(self, "p", p)
        elif self.kind == "table":
            pts = tuple((float(t), float(m)) for t, m in self.points)
            if len(pts) < 2:
                raise ValueError("table needs at least two knots")
            if pts[0] != (0.0, 0.0):
                raise ValueError("table must start at the knot (0, 0)")
            for i in range(1, len(pts)):
                if not (pts[i][0] > pts[i - 1][0]):
                    raise ValueError("table abscissae must be strictly increasing")
                if not math.isfinite(pts[i][0]) or not math.isfinite(pts[i][1]):
                    raise ValueError("table knots must be finite")
            object.__setattr__(self, "points", pts)
            # the knot abscissae, which one bisect_right searches for a
            # segment, and each segment's slope
            object.__setattr__(self, "_abscissae", tuple(t for t, _ in pts))
            segments = zip(pts, pts[1:])
            slopes = tuple((m1 - m0) / (t1 - t0) for (t0, m0), (t1, m1) in segments)
            object.__setattr__(self, "_slopes", slopes)

    @classmethod
    def power(cls, p: float) -> "OrliczFunction":
        return cls(kind="power", p=p)

    @classmethod
    def exp_minus_one(cls) -> "OrliczFunction":
        return cls(kind="exp_minus_one")

    @classmethod
    def x_log1p(cls) -> "OrliczFunction":
        return cls(kind="x_log1p")

    @classmethod
    def table(cls, points: Sequence[Sequence[float]]) -> "OrliczFunction":
        return cls(kind="table", points=points)

    def eval(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise ValueError(f"Orlicz functions take non-negative arguments, got {t!r}")
        if t == 0.0:
            return 0.0
        return self._batch((t,))[0]

    __call__ = eval

    def eval_many(self, ts: Sequence[float]) -> list:
        """``[self.eval(t) for t in ts]`` for floats t >= 0, bit for bit.

        One dispatch on ``kind`` per list instead of one per term, for every
        family, tables included.  Only a subclass that overrides :meth:`eval`
        is evaluated term by term through ``self.eval``, so a batch never
        bypasses an overriding ``eval``.
        """
        if type(self).eval is not OrliczFunction.eval:
            return list(map(self.eval, ts))
        return self._batch(ts)

    def _batch(self, ts: Sequence[float]) -> list:
        """M at each float t >= 0, one formula per family, saturating to
        ``inf`` beyond double range; calls no overridable hook."""
        if self.kind == "power":
            p = self.p
            if p == 1.0:
                return list(ts)
            try:
                return list(map(pow, ts, repeat(p)))
            except OverflowError:
                return list(map(_pow_sat, ts, repeat(p)))
        if self.kind == "x_log1p":
            return list(map(mul, ts, map(math.log1p, ts)))
        if self.kind == "exp_minus_one":
            try:
                return list(map(math.expm1, ts))
            except OverflowError:
                return [math.inf if t > _LN_MAX else math.expm1(t) for t in ts]
        return list(map(self._eval_table, ts))

    def derivative_many(self, ts: Sequence[float]) -> list:
        """M'(t+), the right derivative, at each float t >= 0; ``inf`` beyond range.

        ``power`` p * t**(p - 1); ``x_log1p`` log1p(t) + t / (1 + t);
        ``exp_minus_one`` e**t; ``table`` the slope of the segment right of
        t.  One batch per list for every family: :meth:`eval` is the only
        per-term hook, and this does not call it.  The form follows
        ``kind``, also for a subclass that overrides :meth:`eval`: right
        for M up to a constant factor (a counting or scaling wrapper),
        which keeps the sign of a modular's derivative.  A subclass that
        changes M's shape must override this too.
        """
        if self.kind == "power":
            p, q = self.p, self.p - 1.0
            if q == 0.0:
                return [1.0] * len(ts)
            try:
                return [p * t ** q for t in ts]
            except OverflowError:
                return [p * _pow_sat(t, q) for t in ts]
        if self.kind == "x_log1p":
            log1p = math.log1p  # t / (1 + t) is inf / inf at t = inf
            return [log1p(t) + t / (1.0 + t) if t < math.inf else t for t in ts]
        if self.kind == "exp_minus_one":
            try:
                return list(map(math.exp, ts))
            except OverflowError:
                return [math.exp(t) if t <= _LN_MAX else math.inf for t in ts]
        xs, slopes = self._abscissae, self._slopes
        last = len(slopes) - 1  # the final segment continues beyond the last knot
        return [slopes[min(bisect_right(xs, t) - 1, last)] for t in ts]

    def _eval_table(self, t: float) -> float:
        pts = self.points
        i = bisect_right(self._abscissae, t)
        if i == len(pts):
            # the last knot's value, and beyond it the final segment's slope,
            # which may be inf (inf * 0 would be NaN at the knot itself)
            t1, m1 = pts[-1]
            return m1 if t == t1 else m1 + self._slopes[-1] * (t - t1)
        (t0, m0), (t1, m1) = pts[i - 1], pts[i]
        return m0 + (m1 - m0) * (t - t0) / (t1 - t0)


def _check_non_increasing(g_small: float, g_large: float) -> None:
    # constraint values at a smaller and a larger scale
    slack = 1e-12 * max(1.0, abs(g_large))
    if math.isfinite(g_large) and not math.isinf(g_small):
        if not g_small >= g_large - slack:
            raise ScaleSolverError(f"constraint map increased: {g_small} -> {g_large}")


# the bracket gallops over the exponent of r: 2**(2**k) up or 2**-(2**k) down,
# then the largest finite or the smallest positive double
_UP = tuple(2.0 ** (2 ** k) for k in range(10)) + (sys.float_info.max,)
_DOWN = tuple(2.0 ** -(2 ** k) for k in range(11)) + (math.ulp(0.0),)
_LN_MAX = math.log(sys.float_info.max)  # math.exp stays finite up to here
# the default probe cap of every scale solve
_MAX_PROBES = 200


def _ln(g: float) -> float:
    """ln g, with -inf for g = 0 and inf for g = inf."""
    if 0.0 < g < math.inf:
        return math.log(g)
    return -math.inf if g <= 0.0 else math.inf


class ScaleBracket(FrozenRecord):
    """Where :func:`bracket_scale` stopped.

    ``lo`` is inadmissible (constraint > 1) and ``hi`` admissible, with
    ``g_hi`` the constraint at ``hi`` and ``hi - lo <= rel_tol * hi`` (or
    no double between them).  When no positive double is admissible,
    ``lo`` is the largest finite double and ``hi`` is ``inf``; when every
    positive double is, ``lo = hi = 0.0``.  In both cases ``g_hi`` is None.
    ``probes`` counts the constraint evaluations.
    """

    __slots__ = ("lo", "hi", "g_hi", "probes")


def _zeroin(
    f: Callable[[float], float], b: tuple, c: tuple, tol: float, log: bool = False
) -> tuple:
    """The bracket between b and c narrowed to where f, non-increasing, changes sign.

    b and c are (x, f(x)) pairs, b the newer, with f > 0 at one and f <= 0
    at the other.  Brent's ``zeroin`` (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4): secant steps through the
    last two iterates (in ln x when ``log``), bisections where a secant step
    would not be under half the step before last, would leave the inner
    three quarters of the bracket, or meets an infinite f, and every probe
    at least tol / 2 (relative to x when ``log``) from the better end.
    Returns ((lo, f(lo)), (hi, f(hi))), f(lo) > 0 >= f(hi), once hi - lo <=
    tol (times hi when ``log``), no double lies between them, or f(hi) == 0.
    An exact zero ends the search unless ``log``: there f is ln of a
    constraint that may be 1 on a stretch whose left end is sought, so
    once a probe next to a zero finds f = 0 again, zero steps bisect.
    """
    (lo, f_lo), (hi, f_hi) = sorted((b, c))
    rel, t = (tol, 0.0) if log else (0.0, tol)
    coord = math.log if log else float
    zero_ok = True
    # b is the better end of the bracket, c the other end, a the previous
    # b; d the last step in coord(x), e the one before
    a = c
    d = e = coord(b[0]) - coord(a[0])
    while hi - lo > rel * hi + t and math.nextafter(lo, hi) < hi:
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        if b[1] == 0.0 and not log:
            break
        xa, xb, xc = coord(a[0]), coord(b[0]), coord(c[0])
        fa, fb = a[1], b[1]
        xm = 0.5 * (xc - xb)
        # secant step from b; NaN (no usable secant) fails every test below
        s = fb * (xa - xb) / (fb - fa) if abs(fb) < abs(fa) < math.inf else math.nan
        if s == 0.0 and not zero_ok:
            s = math.nan
        if s * xm >= 0.0 and abs(s) < min(1.5 * abs(xm), 0.5 * abs(e)):
            e, d = d, s
        else:
            e = d = xm
        x = math.exp(min(xb + d, _LN_MAX)) if log else xb + d
        if xm > 0.0:
            x = max(x, b[0] * (1.0 + 0.5 * rel) + 0.5 * t)
        else:
            x = min(x, b[0] * (1.0 - 0.5 * rel) - 0.5 * t)
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:
                x = math.nextafter(lo, hi)
        fx = f(x)
        if d == 0.0 and fx <= 0.0:  # a zero step that stayed on a stretch of zeros
            zero_ok = False
        if fx <= 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        a, b = b, (x, fx)
        if (fx <= 0.0) == (c[1] <= 0.0):  # the bracket is now [a, b]
            c = a
            d = e = coord(x) - xb
    return (lo, f_lo), (hi, f_hi)


def bracket_scale(
    constraint: Callable[[float], float], rel_tol: float, max_iter: int = _MAX_PROBES
) -> ScaleBracket:
    """Bracket inf{r > 0 : constraint(r) <= 1} for a constraint non-increasing in r.

    From r = 1 it gallops over the exponent of r (2, 4, 16, 256, ... up
    while r is inadmissible; 1/2, 1/4, ... down while it is admissible) to
    the largest finite or smallest positive double, so every positive
    double is reached within 13 probes.  Then :func:`_zeroin` narrows
    (ln r, ln g), g the constraint value, to ``rel_tol``; ``hi`` moves only
    to admissible scales.  ln g is linear in ln r when the constraint is a
    power of r (``power(a)`` with a constant exponent), so a secant step
    lands on the root and the next probe closes the bracket.  Monotonicity
    is checked at every probe.  Raises :class:`ScaleSolverError` when the
    constraint increases with r, or when ``max_iter`` probes do not close
    the bracket.
    """
    probes = 0

    def probe(r: float) -> float:
        nonlocal probes
        if probes == max_iter:
            raise ScaleSolverError(
                f"scale not bracketed to rel_tol = {rel_tol} in {max_iter} probes"
            )
        probes += 1
        return constraint(r)

    g = probe(1.0)
    if g > 1.0:
        lo, g_lo = 1.0, g
        for r in _UP:
            g = probe(r)
            _check_non_increasing(g_lo, g)
            if g <= 1.0:
                break
            lo, g_lo = r, g
        else:
            return ScaleBracket(lo, math.inf, None, probes)
        hi, g_hi = r, g
        b, c = (hi, _ln(g_hi)), (lo, _ln(g_lo))
    else:
        hi, g_hi = 1.0, g
        for r in _DOWN:
            g = probe(r)
            _check_non_increasing(g, g_hi)
            if g > 1.0:
                break
            hi, g_hi = r, g
        else:
            return ScaleBracket(0.0, 0.0, None, probes)
        lo, g_lo = r, g
        b, c = (lo, _ln(g_lo)), (hi, _ln(g_hi))

    def ln_constraint(r: float) -> float:
        nonlocal g_lo, g_hi
        g = probe(r)
        _check_non_increasing(g_lo, g)
        _check_non_increasing(g, g_hi)
        # g <= 1 exactly when ln g <= 0, where _zeroin moves hi
        g_lo, g_hi = (g_lo, g) if g <= 1.0 else (g, g_hi)
        return _ln(g)

    (lo, _), (hi, _) = _zeroin(ln_constraint, b, c, rel_tol, log=True)
    return ScaleBracket(lo, hi, g_hi, probes)


def __getattr__(name: str):
    # bench/tracing.py imports these two from here; they live in orlicz_checks
    if name in ("delta2_constant", "small_argument_threshold"):
        from . import orlicz_checks

        return getattr(orlicz_checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
