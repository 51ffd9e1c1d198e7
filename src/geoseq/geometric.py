"""Arithmetic for the geometric (multiplicative) calculus on positive reals.

The map ``u -> e**u`` carries ordinary arithmetic on the reals onto the
strictly positive reals: addition turns into multiplication, the zero
element is 1, and the multiplicative identity is e.  Every operation
below therefore has two evaluation routes that must agree -- a direct
route on positive representatives and a route on their logarithms (the
"log-view").  The log-view is the canonical stored form and the
authoritative route: it is exact under the isomorphism and stays finite
when the representative leaves double range.  Representatives are
materialised on demand; accessing a saturated ``value`` raises
:class:`GeoRangeError` while log-domain work continues unharmed.

All objects are immutable and all functions pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Union

__all__ = [
    "GeoRangeError",
    "GeoScalar",
    "GeoSequence",
    "GEO_ZERO",
    "GEO_IDENTITY",
    "gadd",
    "gsub",
    "gmul",
    "gscale",
    "gabs",
    "gsum",
    "to_log",
    "from_log",
]


class GeoRangeError(ArithmeticError):
    """A representative e**u left double range; use the log-view instead."""


class GeoScalar:
    """A geometric number, the positive representative e**u of its log-view u.

    The log-view is the canonical stored form.  ``GeoScalar(v)`` takes the
    representative itself (a strictly positive finite real), while
    :meth:`from_log` builds the number directly from u.
    """

    __slots__ = ("_log",)

    def __init__(self, value: float):
        v = float(value)
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(
                f"geometric numbers are strictly positive finite reals, got {value!r}"
            )
        self._log = math.log(v)

    @classmethod
    def from_log(cls, u: float) -> "GeoScalar":
        u = float(u)
        if not math.isfinite(u):
            raise ValueError(f"log-view must be finite, got {u!r}")
        obj = cls.__new__(cls)
        obj._log = u
        return obj

    @property
    def log(self) -> float:
        """The log-view ln(value); always finite."""
        return self._log

    @property
    def value(self) -> float:
        """The positive representative e**log.

        Raises :class:`GeoRangeError` when it is not representable as a
        positive finite double (the log-view remains usable).
        """
        try:
            v = math.exp(self._log)
        except OverflowError:
            raise GeoRangeError(
                f"representative exp({self._log}) overflows double range"
            ) from None
        if v == 0.0:
            raise GeoRangeError(
                f"representative exp({self._log}) underflows to zero"
            )
        return v

    @property
    def in_value_range(self) -> bool:
        """Whether the representative fits in a positive finite double."""
        try:
            self.value
        except GeoRangeError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GeoScalar):
            return self._log == other._log
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("GeoScalar", self._log))

    def __repr__(self) -> str:
        if self.in_value_range:
            return f"GeoScalar({self.value!r})"
        return f"GeoScalar.from_log({self._log!r})"


#: The geometric zero (neutral element of geometric addition).
GEO_ZERO = GeoScalar(1.0)

#: The geometric identity (neutral element of geometric multiplication).
GEO_IDENTITY = GeoScalar.from_log(1.0)


def _from_log_checked(u: float) -> GeoScalar:
    if not math.isfinite(u):
        raise GeoRangeError(f"log-view {u!r} left double range")
    return GeoScalar.from_log(u)


def gadd(x: GeoScalar, y: GeoScalar) -> GeoScalar:
    """Geometric addition: x*y on representatives, u+v on log-views."""
    return _from_log_checked(x.log + y.log)


def gsub(x: GeoScalar, y: GeoScalar) -> GeoScalar:
    """Geometric subtraction: x/y on representatives, u-v on log-views."""
    return _from_log_checked(x.log - y.log)


def gmul(x: GeoScalar, y: GeoScalar) -> GeoScalar:
    """Geometric multiplication: e**(ln x * ln y)."""
    return _from_log_checked(x.log * y.log)


def gscale(c: float, x: GeoScalar) -> GeoScalar:
    """Scalar action of the ordinary reals: x**c, i.e. c * ln x in log-view.

    This is the vector-space action used for window weights and the
    banded-transform coefficients; the scalar c is an ordinary real, not
    a geometric number.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"scale factor must be finite, got {c!r}")
    return _from_log_checked(c * x.log)


def gabs(x: GeoScalar) -> GeoScalar:
    """Geometric magnitude e**|ln x|; always >= 1 and idempotent."""
    return GeoScalar.from_log(abs(x.log))


def gsum(xs: Iterable[GeoScalar]) -> GeoScalar:
    """Geometric sum (product of representatives); empty input gives 1."""
    xs = list(xs)
    if not xs:
        return GEO_ZERO
    return _from_log_checked(math.fsum(x.log for x in xs))


class GeoSequence:
    """A finite truncation of a geometric sequence, 0-indexed.

    Stores the paired log-view as the canonical data; the positive
    representatives are materialised on demand and may be out of double
    range (see :attr:`in_value_range`), which is normal for sequences
    that only ever get analysed in the log domain.
    """

    __slots__ = ("_logs",)

    def __init__(self, terms: Iterable[Union[GeoScalar, float]]):
        """Terms are positive representatives or :class:`GeoScalar` numbers.

        Floats and ints take one type check, one range check and one
        ``map(math.log)``; the terms are visited one by one, with the same
        logs, otherwise and to name the first bad term.
        """
        terms = terms if isinstance(terms, (list, tuple)) else list(terms)
        kinds = set(map(type, terms))
        if kinds <= {float, int}:  # bool is neither
            try:
                values = terms if kinds == {float} else list(map(float, terms))
            except OverflowError:  # an int beyond double range: the loop finds the first bad term
                values = ()
            if values and 0.0 < min(values) and sum(values) < math.inf:  # no NaN
                self._logs = tuple(map(math.log, values))
                return
        logs = []
        for i, t in enumerate(terms):
            if isinstance(t, GeoScalar):
                logs.append(t.log)
                continue
            v = float(t)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(
                    f"term {i}: geometric values must be positive finite reals, got {t!r}"
                )
            logs.append(math.log(v))
        self._logs = tuple(logs)

    @classmethod
    def from_log(cls, u: Iterable[float]) -> "GeoSequence":
        obj = cls.__new__(cls)
        raw = u if isinstance(u, (list, tuple)) else list(u)
        obj._logs = tuple(map(float, raw))
        if not math.isfinite(sum(map(abs, obj._logs))):  # else every term is finite
            for i, v in enumerate(obj._logs):
                if not math.isfinite(v):
                    raise ValueError(f"term {i}: log-view must be finite, got {raw[i]!r}")
        return obj

    @property
    def logs(self) -> tuple:
        return self._logs

    @property
    def terms(self) -> tuple:
        return tuple(GeoScalar.from_log(u) for u in self._logs)

    @property
    def values(self) -> tuple:
        """Positive representatives, from one ``math.exp`` pass.

        The range rule is that of :attr:`GeoScalar.value`; a term out of
        double range raises :class:`GeoRangeError` naming its index.
        """
        try:
            out = tuple(map(math.exp, self._logs))
        except OverflowError:
            out = (0.0,)
        if 0.0 in out:
            i = next(i for i, u in enumerate(self) if not u.in_value_range)
            raise GeoRangeError(
                f"term {i}: representative exp({self._logs[i]}) is out of double range"
            )
        return out

    @property
    def in_value_range(self) -> bool:
        """Whether every representative fits in a positive finite double."""
        try:
            return 0.0 not in map(math.exp, self._logs)
        except OverflowError:
            return False

    def to_log(self) -> list:
        return list(self._logs)

    def __len__(self) -> int:
        return len(self._logs)

    def __getitem__(self, k: int) -> GeoScalar:
        return GeoScalar.from_log(self._logs[k])

    def __iter__(self) -> Iterator[GeoScalar]:
        return (GeoScalar.from_log(u) for u in self._logs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GeoSequence):
            return self._logs == other._logs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("GeoSequence", self._logs))

    def __repr__(self) -> str:
        n = len(self._logs)
        head = ", ".join(format(u, ".6g") for u in self._logs[:4])
        tail = ", ..." if n > 4 else ""
        return f"GeoSequence.from_log([{head}{tail}])  # {n} terms"


def to_log(x: Union[GeoSequence, Iterable[float]]) -> list:
    """Log-views of a geometric sequence (or of raw positive values)."""
    return (x if isinstance(x, GeoSequence) else GeoSequence(x)).to_log()


def from_log(u: Iterable[float]) -> GeoSequence:
    """Lift a list of finite log-views to a geometric sequence."""
    return GeoSequence.from_log(u)
