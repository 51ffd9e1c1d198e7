"""Exact Fibonacci numbers and the Fibonacci difference transform.

The convention here is f(0) = f(1) = 1, f(n) = f(n-1) + f(n-2), matching
the banded transform below, whose row n carries -f(n+1)/f(n) at column
n-1 and f(n)/f(n+1) at column n.  Row 0 has no column -1, so the first
output term is simply (f(0)/f(1)) * u(0); windowed analyses downstream
never look at that boundary row (see :mod:`geoseq.summability`).

Values are arbitrary-precision integers; float ratios are produced by
exact integer division, which CPython rounds correctly and which cannot
overflow (the quotients lie in (0, 2]).  The ratios are convergents of
the golden ratio: they alternate around their limit and each lies
between the two before it.  Rounding to nearest is monotone, so once two
consecutive ratios round to the same double, every later one does too.
The rounded ratios are therefore tabulated once up to that index and
frozen beyond it; no ratio needs a big integer.
"""

from __future__ import annotations

import math
import threading
from itertools import chain, islice, repeat
from operator import mul, sub
from typing import Optional, Sequence

from .geometric import GeoRangeError, GeoSequence

__all__ = [
    "FibonacciCache",
    "fib",
    "fib_ratio",
    "fib_inverse_ratio",
    "cassini",
    "fib_partial_sum",
    "identity_report",
    "difference_entry",
    "difference_transform_log",
    "difference_transform",
    "kernel_log_sequence",
    "GOLDEN_RATIO",
]

#: Limit of f(n+1)/f(n).
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def _rounded_ratios(inverse: bool) -> tuple:
    """Correctly rounded f(k)/f(k+1) (or f(k+1)/f(k)) for k = 0..K.

    K is the first index whose ratio rounds to the same double as the
    next one; every ratio beyond K rounds to the entry at K (module
    docstring).
    """
    a, b = 1, 1  # f(k), f(k+1)
    table = []
    while True:
        r = b / a if inverse else a / b
        if table and table[-1] == r:
            return tuple(table)
        table.append(r)
        a, b = b, a + b


_RATIOS = _rounded_ratios(inverse=False)
_INVERSE_RATIOS = _rounded_ratios(inverse=True)


class FibonacciCache:
    """Grow-only cache of exact Fibonacci numbers."""

    def __init__(self):
        self._values = [1, 1]
        self._lock = threading.Lock()

    def _ensure(self, n: int) -> None:
        if n < len(self._values):
            return
        with self._lock:
            while n >= len(self._values):
                self._values.append(self._values[-1] + self._values[-2])

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        self._ensure(n)
        return self._values[n]


_CACHE = FibonacciCache()


def fib(n: int) -> int:
    """Exact n-th Fibonacci number under the f(0) = f(1) = 1 convention."""
    return _CACHE.value(n)


def fib_ratio(k: int) -> float:
    """f(k) / f(k+1), correctly rounded; lies in (0, 1]."""
    return _tabled(_RATIOS, k)


def fib_inverse_ratio(k: int) -> float:
    """f(k+1) / f(k), correctly rounded; lies in [1, 2]."""
    return _tabled(_INVERSE_RATIOS, k)


def _tabled(table: tuple, k: int) -> float:
    """Entry k of a ratio table, frozen at its last entry beyond it."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    return table[min(k, len(table) - 1)]


def cassini(n: int) -> int:
    """f(n-1) f(n+1) - f(n)**2, which equals (-1)**(n+1) for n >= 1.

    The substituted form f(n-1)**2 + f(n) f(n-1) - f(n)**2 is recomputed
    and compared; the recurrence makes the two agree identically.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    a, b, d = _CACHE.value(n - 1), _CACHE.value(n), _CACHE.value(n + 1)
    primary = a * d - b * b
    substituted = a * a + b * a - b * b
    if primary != substituted:
        raise AssertionError(f"identity forms disagree at n={n}")
    return primary


def fib_partial_sum(n: int) -> int:
    """Sum of f(0)..f(n); equals f(n+2) - 1."""
    _CACHE._ensure(n + 2)
    return sum(_CACHE.value(k) for k in range(n + 1))


def identity_report(n_max: int) -> dict:
    """Exact-integer status of the product and sum identities up to n_max."""
    cassini_ok = all(cassini(n) == (-1) ** (n + 1) for n in range(1, n_max + 1))
    sum_ok = all(fib_partial_sum(n) == fib(n + 2) - 1 for n in range(n_max + 1))
    return {"n_max": n_max, "cassini_ok": cassini_ok, "sum_ok": sum_ok}


def difference_entry(n: int, k: int) -> float:
    """Entry (n, k) of the banded Fibonacci difference matrix."""
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    if k == n - 1:
        return -fib_inverse_ratio(n)
    if k == n:
        return fib_ratio(n)
    return 0.0


def _transformed_rows(u: Sequence[float], first: int) -> list:
    """Rows ``first``.. (0 or 1) of the transform of the floats ``u``, read
    in place; a row that is not finite raises :class:`GeoRangeError`
    naming it."""
    ratios = chain(_RATIOS[1:], repeat(_RATIOS[-1]))
    inverse = chain(_INVERSE_RATIOS[1:], repeat(_INVERSE_RATIOS[-1]))
    rows = [_RATIOS[0] * u[0]] if u and not first else []
    rows += map(sub, map(mul, ratios, islice(u, 1, None)), map(mul, inverse, u))
    if not all(map(math.isfinite, rows)):
        k = next(k for k, v in enumerate(rows) if not math.isfinite(v))
        raise GeoRangeError(f"transformed row {k + first} left double range ({rows[k]!r})")
    return rows


def difference_transform_log(
    u: Sequence[float], cache: Optional[FibonacciCache] = None
) -> list:
    """Apply the difference matrix to a real (log-domain) sequence.

    y(0) = (f(0)/f(1)) u(0); y(n) = (f(n)/f(n+1)) u(n) - (f(n+1)/f(n)) u(n-1).
    Length is preserved.  The ratios are read from the frozen tables,
    extended by their last entry, in one pass.  A row that is not finite
    raises :class:`GeoRangeError` naming the first such row.  ``cache`` is
    not read (the ratios never depend on it); it stays for callers that
    pass one positionally, such as ``bench/tracing.py``.
    """
    return _transformed_rows(list(map(float, u)), 0)


def difference_transform(
    x: GeoSequence, cache: Optional[FibonacciCache] = None
) -> GeoSequence:
    """Apply the difference matrix to a geometric sequence.

    Term n is (f(n)/f(n+1)) |> x(n)  geo-minus  (f(n+1)/f(n)) |> x(n-1),
    with the scalar action |> of :func:`geoseq.geometric.gscale`.  On the
    log-view that is :func:`difference_transform_log`, whose rows (and
    range error) are lifted here; ``cache`` is not read there either.
    Representatives may still leave double range (``in_value_range``).
    """
    return GeoSequence.from_log(_transformed_rows(x.logs, 0))


def kernel_log_sequence(n_terms: int) -> list:
    """Log-views u(k) = f(k+1)**2, the non-trivial kernel of the transform.

    Exact telescoping, u(k) = u(k-1) * (f(k+1)/f(k))**2, makes every
    transformed term vanish for k >= 1 while u itself is far from the
    constant-one sequence: the standard witness that the windowed
    paranorm is not total.  Raises :class:`GeoRangeError` naming the
    first k whose f(k+1)**2 leaves double range.
    """
    out = []
    for k in range(n_terms):
        try:
            out.append(float(_CACHE.value(k + 1) ** 2))
        except OverflowError:
            raise GeoRangeError(
                f"kernel term u({k}) = f({k + 1})**2 leaves double range"
            ) from None
    return out
