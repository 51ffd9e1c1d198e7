"""Geometric arithmetic: dual-route agreement, field axioms, magnitudes."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseq import (
    GEO_IDENTITY,
    GEO_ZERO,
    GeoRangeError,
    GeoScalar,
    GeoSequence,
    from_log,
    gabs,
    gadd,
    gmul,
    gscale,
    gsub,
    gsum,
    to_log,
)

E = math.e


def gs(u):
    return GeoScalar.from_log(u)


finite_logs = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestConstruction:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            GeoScalar(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_from_log_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            GeoScalar.from_log(bad)

    def test_log_and_value_agree(self):
        x = GeoScalar(2.5)
        assert x.log == pytest.approx(math.log(2.5), abs=0)
        assert x.value == pytest.approx(2.5, rel=1e-15)

    def test_zero_and_identity_constants(self):
        assert GEO_ZERO.log == 0.0
        assert GEO_ZERO.value == 1.0
        assert GEO_IDENTITY.log == 1.0

    def test_sequence_rejects_bad_terms_with_index(self):
        with pytest.raises(ValueError, match="term 1"):
            GeoSequence([1.0, -3.0])
        with pytest.raises(ValueError, match="term 2"):
            GeoSequence.from_log([0.0, 1.0, math.nan])


def _ref_sequence_logs(terms):
    """The per-term ``GeoSequence`` constructor the column path replaced."""
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
    return tuple(logs)


def _built(build, terms):
    """The log bits ``build(terms)`` gives, or its exception's type and text."""
    try:
        return [u.hex() for u in build(terms)]
    except (ValueError, OverflowError, TypeError) as exc:
        return type(exc).__name__, str(exc)


class _Half(float):
    pass


class TestColumnConstruction:
    """``GeoSequence(terms)`` in one type check, range check and log map gives
    the per-term constructor's logs bit for bit, and its first error."""

    # the largest doubles make the range check's sum overflow, which takes the loop
    GOOD = [1.0, 2.5, 5e-324, 1e-300, 1.7976931348623157e308, 1e308, 7, 10 ** 300, 0.5]
    BAD = [0.0, -0.0, -2.0, -3, 0, math.inf, -math.inf, math.nan, 10 ** 400, True, False,
           "2.5", "x", None, GeoScalar(3.0), _Half(0.5), _Half(-1.0)]

    def test_against_the_per_term_loop(self):
        rng = random.Random(21)
        for trial in range(3000):
            terms = [rng.choice(self.GOOD) for _ in range(rng.randrange(0, 12))]
            for _ in range(rng.choice([0, 0, 1, 2])):
                terms.insert(rng.randrange(len(terms) + 1), rng.choice(self.BAD))
            want = _built(_ref_sequence_logs, terms)
            for form in (list, tuple, iter):
                got = _built(lambda t: GeoSequence(t).logs, form(terms))
                assert got == want, (trial, terms)


class TestExamples:
    def test_gadd(self):
        assert gadd(gs(2), gs(3)).log == pytest.approx(5.0, abs=1e-12)
        x = gs(1.7)
        assert gadd(x, GEO_ZERO).log == pytest.approx(x.log, abs=1e-12)
        assert gadd(gs(-4), gs(4)).log == pytest.approx(0.0, abs=1e-12)

    def test_gsub(self):
        x = gs(0.9)
        assert gsub(x, x).log == pytest.approx(0.0, abs=1e-12)
        assert gsub(gs(5), gs(2)).log == pytest.approx(3.0, abs=1e-12)
        assert gsub(GEO_ZERO, gs(2)).log == pytest.approx(-2.0, abs=1e-12)

    def test_gmul(self):
        x = gs(0.37)
        assert gmul(x, GEO_IDENTITY).log == pytest.approx(x.log, abs=0)
        assert gmul(x, GEO_ZERO).log == 0.0  # the zero annihilates
        assert gmul(gs(2), gs(3)).log == pytest.approx(6.0, abs=1e-12)

    def test_gscale(self):
        assert gscale(2.0, gs(3)).log == pytest.approx(6.0, abs=1e-12)
        assert gscale(0.0, gs(11.3)).log == 0.0
        assert gscale(2.0 / 3.0, GEO_IDENTITY).log == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_gscale_matches_transform_coefficient(self):
        # the ratio f(2)/f(3) = 2/3 acts the same through gscale and
        # through the banded transform's diagonal on a unit-log term
        from geoseq import difference_transform, fib_ratio

        r = fib_ratio(2)
        lifted = gscale(r, GEO_IDENTITY).log
        transformed = difference_transform(from_log([0.0, 0.0, 1.0]))[2].log
        assert lifted == pytest.approx(transformed, abs=1e-15)
        assert lifted == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_gscale_rejects_non_finite_factor(self):
        with pytest.raises(ValueError):
            gscale(math.inf, gs(1.0))

    def test_gabs(self):
        assert gabs(gs(-2)).log == 2.0
        assert gabs(GEO_ZERO).log == 0.0
        assert gabs(gs(3)).log == 3.0

    def test_gsum(self):
        assert gsum([GEO_IDENTITY] * 3).log == pytest.approx(3.0, abs=1e-12)
        assert gsum([]).log == 0.0
        assert gsum([gs(2), gs(-2)]).log == pytest.approx(0.0, abs=1e-12)


class TestLogRoundTrip:
    def test_from_log_example(self):
        x = from_log([0.0, 1.0, 2.0])
        assert x.values == pytest.approx((1.0, E, E * E), rel=1e-15)

    def test_round_trip_identity(self):
        u = [0.3, -41.7, 12.0, 0.0]
        assert to_log(from_log(u)) == pytest.approx(u, rel=1e-14)

    def test_ones_map_to_zeros(self):
        assert to_log(GeoSequence([1.0, 1.0, 1.0])) == [0.0, 0.0, 0.0]

    def test_value_round_trip_relative(self):
        rng = random.Random(7)
        vals = [math.exp(rng.uniform(-50, 50)) for _ in range(200)]
        back = from_log(to_log(vals)).values
        for a, b in zip(vals, back):
            assert b == pytest.approx(a, rel=1e-14)

    def test_to_log_rejects_non_positive(self):
        with pytest.raises(ValueError, match="term 1"):
            to_log([1.0, 0.0])


class TestRangeBehaviour:
    def test_overflowing_representative_reports_range_error(self):
        big = gadd(gs(400.0), gs(400.0))
        assert big.log == 800.0
        assert not big.in_value_range
        with pytest.raises(GeoRangeError):
            big.value

    def test_underflow_reports_range_error(self):
        small = gsub(gs(-400.0), gs(400.0))
        assert small.log == -800.0
        with pytest.raises(GeoRangeError):
            small.value

    def test_gmul_far_outside_double_range(self):
        # representative e**2500 cannot exist, the log-view must
        assert gmul(gs(50.0), gs(50.0)).log == 2500.0

    def test_operations_continue_in_log_domain(self):
        big = gadd(gs(400.0), gs(400.0))
        assert gsub(big, gs(750.0)).log == pytest.approx(50.0, abs=1e-12)
        assert gscale(0.5, big).log == pytest.approx(400.0, abs=1e-12)

    def test_sequence_value_range_flag(self):
        ok = from_log([0.0, 5.0])
        sat = from_log([0.0, 800.0])
        assert ok.in_value_range
        assert not sat.in_value_range
        with pytest.raises(GeoRangeError, match="term 1"):
            sat.values


# exp's last finite result and its last nonzero result, and the next
# log-views past them, which overflow and underflow to zero
_EXP_MAX = 709.782712893384
_EXP_MIN = -745.1332191019411
_EDGES = [
    _EXP_MAX,
    math.nextafter(_EXP_MAX, math.inf),
    _EXP_MIN,
    math.nextafter(_EXP_MIN, -math.inf),
]


def _scalar_value(u):
    try:
        return GeoScalar.from_log(u).value
    except GeoRangeError:
        return None


class TestSequenceValueView:
    def test_edges_are_exp_edges(self):
        assert math.isfinite(math.exp(_EDGES[0]))
        with pytest.raises(OverflowError):
            math.exp(_EDGES[1])
        assert math.exp(_EDGES[2]) > 0.0
        assert math.exp(_EDGES[3]) == 0.0

    @pytest.mark.parametrize("u", _EDGES + [0.0, -1.5, 300.0])
    def test_single_term_matches_scalar_view(self, u):
        x = from_log([u])
        want = _scalar_value(u)
        assert x.in_value_range == GeoScalar.from_log(u).in_value_range
        assert x.in_value_range == (want is not None)
        if want is None:
            with pytest.raises(GeoRangeError, match=r"^term 0: "):
                x.values
        else:
            assert x.values == (want,)

    def test_in_range_sequence_matches_scalar_view_bit_for_bit(self):
        rng = random.Random(8)
        u = [_EDGES[0], _EDGES[2]] + [rng.uniform(_EDGES[2], _EDGES[0]) for _ in range(500)]
        x = from_log(u)
        assert x.in_value_range
        assert [v.hex() for v in x.values] == [_scalar_value(v).hex() for v in u]

    @pytest.mark.parametrize(
        "u, first",
        [
            ([0.0, _EDGES[0], _EDGES[2], _EDGES[1], _EDGES[3]], 3),  # overflow first
            ([0.0, _EDGES[2], _EDGES[3], _EDGES[1]], 2),  # underflow first
            ([_EDGES[1]] * 3, 0),
        ],
    )
    def test_error_names_first_failing_index(self, u, first):
        x = from_log(u)
        assert not x.in_value_range
        with pytest.raises(GeoRangeError, match=rf"^term {first}: representative exp\("):
            x.values


class TestIsomorphism:
    """The ops must mirror ordinary arithmetic on log-views."""

    def test_random_pairs(self):
        rng = random.Random(20240301)
        for _ in range(20_000):
            u = rng.uniform(-50, 50)
            v = rng.uniform(-50, 50)
            c = rng.uniform(-5, 5)
            x, y = gs(u), gs(v)
            assert abs(gadd(x, y).log - (u + v)) <= 1e-12
            assert abs(gsub(x, y).log - (u - v)) <= 1e-12
            assert abs(gmul(x, y).log - (u * v)) <= 1e-12
            assert abs(gscale(c, x).log - (c * u)) <= 1e-12
            assert abs(gabs(x).log - abs(u)) == 0.0

    def test_primitive_route_agrees(self):
        # independent oracle: the same operations evaluated directly on
        # the positive representatives
        rng = random.Random(314)
        for _ in range(5_000):
            u = rng.uniform(-50, 50)
            v = rng.uniform(-50, 50)
            c = rng.uniform(-5, 5)
            x, y = gs(u), gs(v)
            assert abs(gadd(x, y).log - math.log(x.value * y.value)) <= 1e-12
            assert abs(gsub(x, y).log - math.log(x.value / y.value)) <= 1e-12
            assert abs(gscale(c, x).log - math.log(x.value ** c)) <= 1e-12
            prim_abs = x.value if x.value >= 1.0 else 1.0 / x.value
            assert abs(gabs(x).log - math.log(prim_abs)) <= 1e-12

    def test_gsum_matches_fsum(self):
        rng = random.Random(99)
        for _ in range(500):
            us = [rng.uniform(-50, 50) for _ in range(10)]
            assert abs(gsum([gs(u) for u in us]).log - math.fsum(us)) <= 1e-12


class TestFieldAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(4242)
        for _ in range(10_000):
            u, v, w = (rng.uniform(-30, 30) for _ in range(3))
            x, y, z = gs(u), gs(v), gs(w)
            # commutativity
            assert gadd(x, y).log == gadd(y, x).log
            assert gmul(x, y).log == gmul(y, x).log
            # associativity
            assert math.isclose(
                gadd(gadd(x, y), z).log, gadd(x, gadd(y, z)).log,
                rel_tol=1e-12, abs_tol=1e-12,
            )
            assert math.isclose(
                gmul(gmul(x, y), z).log, gmul(x, gmul(y, z)).log,
                rel_tol=1e-12, abs_tol=1e-12,
            )
            # distributivity
            assert math.isclose(
                gmul(x, gadd(y, z)).log, gadd(gmul(x, y), gmul(x, z)).log,
                rel_tol=1e-12, abs_tol=1e-12,
            )
            # identities
            assert abs(gadd(x, GEO_ZERO).log - u) <= 1e-12
            assert gmul(x, GEO_IDENTITY).log == u

    @given(u=finite_logs, v=finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_additive_inverse_property(self, u, v):
        x, y = gs(u), gs(v)
        assert abs(gadd(gsub(x, y), y).log - u) <= 1e-9 * max(1.0, abs(u))


class TestMagnitude:
    @given(u=finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_gabs_at_least_geometric_zero(self, u):
        assert gabs(gs(u)).log >= 0.0

    @given(u=finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_gabs_idempotent(self, u):
        x = gs(u)
        assert gabs(gabs(x)).log == gabs(x).log

    @given(u=finite_logs, v=finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_gabs_symmetric_difference(self, u, v):
        x, y = gs(u), gs(v)
        assert gabs(gsub(x, y)).log == gabs(gsub(y, x)).log
