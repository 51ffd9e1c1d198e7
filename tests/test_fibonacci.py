"""Fibonacci values, identities, and the banded difference transform."""

import math
import random
from fractions import Fraction

import pytest

from geoseq import (
    GeoRangeError,
    fib,
    fib_inverse_ratio,
    fib_ratio,
    cassini,
    difference_entry,
    difference_transform,
    difference_transform_log,
    from_log,
    kernel_log_sequence,
)
from geoseq.fibonacci import (
    GOLDEN_RATIO,
    FibonacciCache,
    fib_partial_sum,
    identity_report,
)


def exact_fib(n_max):
    f = [1, 1]
    while len(f) <= n_max:
        f.append(f[-1] + f[-2])
    return f


def exact_transform(u):
    """Dense matrix-vector oracle in exact rational arithmetic."""
    f = exact_fib(len(u) + 2)
    out = []
    for n in range(len(u)):
        acc = Fraction(0)
        for k in range(len(u)):
            if k == n - 1:
                acc -= Fraction(f[n + 1], f[n]) * u[k]
            elif k == n:
                acc += Fraction(f[n], f[n + 1]) * u[k]
        out.append(acc)
    return out


class TestValues:
    def test_initial_values(self):
        assert fib(0) == 1
        assert fib(1) == 1

    def test_prefix(self):
        assert [fib(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_fib_6(self):
        assert fib(6) == 13

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_cache_is_exact_to_300(self):
        f = exact_fib(302)
        cache = FibonacciCache()
        assert all(cache.value(n) == f[n] for n in range(301))


class TestIdentities:
    def test_cassini_examples(self):
        assert cassini(3) == 1
        assert cassini(2) == -1
        assert cassini(1) == 1

    def test_cassini_exact_to_300(self):
        for n in range(1, 301):
            assert cassini(n) == (-1) ** (n + 1)

    def test_sum_identity_exact_to_300(self):
        for n in range(301):
            assert fib_partial_sum(n) == fib(n + 2) - 1

    def test_sum_example(self):
        assert fib_partial_sum(3) == 7 == fib(5) - 1

    def test_identity_report(self):
        rep = identity_report(120)
        assert rep == {"n_max": 120, "cassini_ok": True, "sum_ok": True}


class TestRatios:
    def test_ratio_in_unit_interval(self):
        for k in range(200):
            assert 0.0 < fib_ratio(k) <= 1.0

    def test_golden_ratio_convergence(self):
        for n in range(40, 301):
            assert abs(fib_inverse_ratio(n) - GOLDEN_RATIO) <= 1e-12

    def test_ratio_times_inverse(self):
        for k in range(0, 120, 7):
            assert fib_ratio(k) * fib_inverse_ratio(k) == pytest.approx(1.0, rel=1e-15)

    def test_reciprocal_sum_is_cauchy(self):
        f = exact_fib(302)
        s100 = sum(Fraction(1, f[k]) for k in range(101))
        s300 = sum(Fraction(1, f[k]) for k in range(301))
        assert abs(s300 - s100) < Fraction(1, 10**20)
        d100 = math.fsum(1.0 / f[k] for k in range(101))
        d300 = math.fsum(1.0 / f[k] for k in range(301))
        assert abs(d300 - d100) <= 1e-12


def _freeze_index(inverse):
    """First k whose correctly rounded ratio equals the one at k + 1."""
    f = exact_fib(200)
    k = 0
    while True:
        r0 = f[k + 1] / f[k] if inverse else f[k] / f[k + 1]
        r1 = f[k + 2] / f[k + 1] if inverse else f[k + 1] / f[k + 2]
        if r0 == r1:
            return k
        k += 1


class TestFrozenRatios:
    def test_freeze_indices(self):
        assert _freeze_index(inverse=False) == 42
        assert _freeze_index(inverse=True) == 39

    def test_ratios_equal_exact_division(self):
        f = exact_fib(3002)
        for k in range(3001):
            assert fib_ratio(k) == f[k] / f[k + 1]
            assert fib_inverse_ratio(k) == f[k + 1] / f[k]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index must be >= 0, got -1"):
            fib_ratio(-1)
        with pytest.raises(ValueError, match="index must be >= 0, got -1"):
            fib_inverse_ratio(-1)

    def test_long_transform_keeps_the_cache_small(self):
        rng = random.Random(5)
        u = [rng.uniform(-2.0, 2.0) for _ in range(32000)]
        c = FibonacciCache()
        assert len(difference_transform_log(u, c)) == 32000
        K = max(_freeze_index(inverse=False), _freeze_index(inverse=True))
        assert len(c._values) <= K + 2

    def test_transform_equals_per_row_form_bit_for_bit(self):
        # rows well past both freeze indices, with magnitudes up to 1e300
        rng = random.Random(6)
        u = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300) for _ in range(400)]
        f = exact_fib(402)
        want = [(f[0] / f[1]) * u[0]] + [
            (f[n] / f[n + 1]) * u[n] - (f[n + 1] / f[n]) * u[n - 1]
            for n in range(1, len(u))
        ]
        got = difference_transform_log(u)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert difference_transform_log(u[:1]) == [u[0]]

    def test_values_still_grow_on_demand(self):
        c = FibonacciCache()
        assert c.value(300) == exact_fib(300)[300]
        assert len(c._values) == 301


class TestEntries:
    def test_entry_examples(self):
        assert difference_entry(2, 1) == -1.5
        assert difference_entry(2, 2) == pytest.approx(2.0 / 3.0, abs=0)
        assert difference_entry(3, 2) == pytest.approx(-5.0 / 3.0, abs=0)
        assert difference_entry(3, 3) == 0.6
        assert difference_entry(5, 0) == 0.0

    def test_band_structure(self):
        for n in range(12):
            for k in range(12):
                if k not in (n - 1, n):
                    assert difference_entry(n, k) == 0.0

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            difference_entry(-1, 0)


class TestLogTransform:
    def test_all_ones_example(self):
        y = difference_transform_log([1.0, 1.0, 1.0, 1.0])
        expected = [1.0, -1.5, -5.0 / 6.0, -16.0 / 15.0]
        assert y == pytest.approx(expected, rel=1e-15)
        oracle = exact_transform([Fraction(1)] * 4)
        assert y == pytest.approx([float(v) for v in oracle], rel=1e-15)

    def test_zeros(self):
        assert difference_transform_log([0.0] * 6) == [0.0] * 6

    def test_empty(self):
        assert difference_transform_log([]) == []

    def test_dense_oracle_on_random_input(self):
        rng = random.Random(5)
        for _ in range(25):
            u = [rng.uniform(-20, 20) for _ in range(rng.randint(1, 30))]
            y = difference_transform_log(u)
            dense = [
                math.fsum(difference_entry(n, k) * u[k] for k in range(len(u)))
                for n in range(len(u))
            ]
            scale = max(1.0, max(abs(v) for v in u))
            assert y == pytest.approx(dense, abs=1e-12 * scale)

    def test_kernel_rows_vanish(self):
        u = kernel_log_sequence(26)
        assert u[0] == 1.0
        y = difference_transform_log(u)
        for k in range(1, 26):
            assert abs(y[k]) <= 1e-9 * u[k]
        # rational oracle: the kernel is exact
        exact = exact_transform([Fraction(int(v)) for v in u])
        assert exact[0] == 1
        assert all(v == 0 for v in exact[1:])

    def test_kernel_range_error_names_first_index(self):
        f = exact_fib(802)
        first = next(k for k in range(800) if f[k + 1] ** 2 >= 2**1024)
        assert kernel_log_sequence(first)[-1] == float(f[first] ** 2)
        with pytest.raises(GeoRangeError, match=rf"u\({first}\)"):
            kernel_log_sequence(800)

    def test_kernel_telescoping_relation(self):
        f = exact_fib(30)
        u = kernel_log_sequence(26)
        for k in range(1, 26):
            assert u[k] == pytest.approx(
                u[k - 1] * (f[k + 1] / f[k]) ** 2, rel=1e-12
            )

    def test_constant_input_tends_to_negated_constant(self):
        # ratio difference tends to 1/alpha - alpha = -1 exactly
        for c in (2.5, -0.7):
            y = difference_transform_log([c] * 201)
            assert abs(y[200] + c) <= 1e-12


class TestGeoTransform:
    def test_unit_log_example(self):
        x = from_log([1.0, 1.0, 1.0, 1.0])
        y = difference_transform(x)
        assert y.logs == pytest.approx([1.0, -1.5, -5.0 / 6.0, -16.0 / 15.0], rel=1e-12)

    def test_all_ones_fixed(self):
        x = from_log([0.0] * 5)
        assert difference_transform(x).logs == (0.0,) * 5

    def test_agrees_with_log_route(self):
        rng = random.Random(11)
        inputs = [
            [rng.uniform(-50, 50) for _ in range(rng.randint(1, 40))]
            for _ in range(30)
        ]
        # long inputs well past both freeze indices, up to 1e300 in magnitude
        inputs += [
            [rng.choice((-1.0, 1.0)) * scale * rng.uniform(0.5, 1.0) for _ in range(32000)]
            for scale in (1.0, 1e3, 1e300)
        ]
        for u in inputs:
            geo = difference_transform(from_log(u)).logs
            logv = difference_transform_log(u)
            assert [v.hex() for v in geo] == [v.hex() for v in logv]

    def test_first_non_finite_row_is_named(self):
        # row 3 is (3/5)(-1e308) - (5/3)(1e308), below -DBL_MAX
        u = [1.0, 1.0, 1e308, -1e308, 1e308]
        msg = r"^transformed row 3 left double range \(-inf\)$"
        with pytest.raises(GeoRangeError, match=msg):
            difference_transform_log(u)
        with pytest.raises(GeoRangeError, match=msg):
            difference_transform(from_log(u))
        assert difference_transform_log(u[:3])[2] == (2.0 / 3.0) * 1e308 - 1.5

    def test_agrees_with_primitive_route(self):
        # independent oracle: evaluate the rows directly on positive
        # representatives, x_n**r divided by x_{n-1}**q
        rng = random.Random(12)
        for _ in range(20):
            u = [rng.uniform(-5, 5) for _ in range(12)]
            x = from_log(u)
            geo = difference_transform(x).logs
            vals = x.values
            prim = [math.log(vals[0] ** fib_ratio(0))]
            for n in range(1, len(u)):
                prim.append(
                    math.log(
                        vals[n] ** fib_ratio(n)
                        / vals[n - 1] ** fib_inverse_ratio(n)
                    )
                )
            assert geo == pytest.approx(prim, abs=1e-12)

    def test_constant_geometric_sequence(self):
        c = 1.25
        y = difference_transform(from_log([c] * 201))
        assert abs(y[200].log + c) <= 1e-12

    def test_saturated_values_fall_back_to_log_view(self):
        x = from_log([500.0, 500.0, 500.0])
        y = difference_transform(x)
        assert not y.in_value_range  # flagged: value view saturated
        logv = difference_transform_log([500.0, 500.0, 500.0])
        assert y.logs == pytest.approx(logv, abs=1e-12 * 500.0)
