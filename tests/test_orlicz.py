"""Orlicz families, grid diagnostics, doubling constants, Luxemburg norm."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseq import (
    DegenerateOrliczError,
    OrliczFunction,
    ScaleSolverError,
    delta2_constant,
    luxemburg_norm,
    solve_scale,
    validate_on_grid,
)
from geoseq.orlicz import log_grid, small_argument_threshold

POWER2 = OrliczFunction.power(2.0)
EXPM1 = OrliczFunction.exp_minus_one()
XLOG = OrliczFunction.x_log1p()


class TestEval:
    def test_power_example(self):
        assert POWER2.eval(3.0) == 9.0

    @pytest.mark.parametrize("M", [POWER2, EXPM1, XLOG, OrliczFunction.power(1.0)])
    def test_zero_maps_to_zero(self, M):
        assert M.eval(0.0) == 0.0

    def test_exp_minus_one_at_one(self):
        assert EXPM1.eval(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            POWER2.eval(-0.5)

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError):
            OrliczFunction.power(0.5)

    def test_saturates_to_inf(self):
        assert EXPM1.eval(1e4) == math.inf
        assert OrliczFunction.power(100.0).eval(1e200) == math.inf

    def test_table_eval_interpolates_and_extrapolates(self):
        M = OrliczFunction.table([(0, 0), (1, 1), (2, 3)])
        assert M.eval(0.5) == 0.5
        assert M.eval(1.5) == 2.0
        assert M.eval(4.0) == pytest.approx(7.0)  # final slope 2 continues

    def test_table_structure_validated(self):
        with pytest.raises(ValueError):
            OrliczFunction.table([(0, 0)])
        with pytest.raises(ValueError):
            OrliczFunction.table([(0.5, 0), (1, 1)])
        with pytest.raises(ValueError):
            OrliczFunction.table([(0, 0), (1, 1), (1, 2)])

    def test_config_round_trip(self):
        for M in (POWER2, EXPM1, XLOG, OrliczFunction.table([(0, 0), (1, 2)])):
            assert OrliczFunction.from_config(M.describe()) == M


class TestValidate:
    def test_power_passes(self):
        assert validate_on_grid(POWER2, log_grid(1e-3, 1e3, 10)).passed

    def test_x_log1p_passes(self):
        # t log1p(t) has strictly positive second derivative
        assert validate_on_grid(XLOG, log_grid(1e-3, 1e3, 10)).passed

    def test_decreasing_table_fails_with_witness(self):
        M = OrliczFunction.table([(0, 0), (1, 2), (2, 1)])
        diag = validate_on_grid(M, [0.5, 1.0, 1.5, 2.0])
        assert not diag.passed
        assert diag.failure_kind == "monotone"
        assert diag.witness is not None

    def test_concave_table_fails_convexity(self):
        M = OrliczFunction.table([(0, 0), (1, 10), (2, 11)])
        diag = validate_on_grid(M, [0.25, 0.75, 1.0, 1.5, 2.0])
        assert not diag.passed
        assert diag.failure_kind == "convex"

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_on_grid(POWER2, [1.0, 0.5])
        with pytest.raises(ValueError):
            validate_on_grid(POWER2, [-1.0, 0.5])

    @given(p=st.floats(min_value=1.0, max_value=6.0))
    @settings(max_examples=50, deadline=None)
    def test_power_family_always_valid(self, p):
        assert validate_on_grid(OrliczFunction.power(p), log_grid(1e-2, 1e2, 8)).passed


class TestDelta2:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_power_constant_is_two_to_p(self, p):
        rep = delta2_constant(OrliczFunction.power(p))
        assert rep.satisfied
        assert rep.K == pytest.approx(2.0 ** p, rel=1e-12)
        assert rep.analytic is True

    def test_power_one_boundary(self):
        # doubling constant exactly 2: reported as computed
        rep = delta2_constant(OrliczFunction.power(1.0))
        assert rep.satisfied
        assert rep.K == 2.0

    def test_constant_at_least_two_when_satisfied(self):
        # convexity with M(0) = 0 forces M(2u) >= 2 M(u)
        for M in (POWER2, XLOG, OrliczFunction.power(1.0)):
            rep = delta2_constant(M)
            if rep.satisfied:
                assert rep.K >= 2.0 - 1e-12

    def test_exponential_family_unbounded(self):
        # M(2u)/M(u) = e**u + 1 grows without bound
        rep = delta2_constant(EXPM1)
        assert not rep.satisfied
        assert rep.analytic is False

    def test_exponential_ratio_closed_form(self):
        for u in (0.25, 1.0, 3.0):
            ratio = EXPM1.eval(2 * u) / EXPM1.eval(u)
            assert ratio == pytest.approx(math.exp(u) + 1.0, rel=1e-12)

    def test_x_log1p_satisfied_with_constant_four(self):
        rep = delta2_constant(XLOG)
        assert rep.satisfied
        assert rep.K == pytest.approx(4.0, rel=1e-4)
        assert rep.analytic is True

    def test_degenerate_flat_zero_raises(self):
        M = OrliczFunction.table([(0, 0), (1, 0), (2, 1)])
        with pytest.raises(DegenerateOrliczError):
            delta2_constant(M, grid=[0.25, 0.5, 1.0])

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [2.0, 3.0, 4.0])
    def test_power_scaling_form(self, p, scale):
        # M(l u) = l**p M(u): the equivalent multi-factor form, exact
        M = OrliczFunction.power(p)
        for u in (0.1, 1.0, 7.5):
            assert M.eval(scale * u) == pytest.approx(
                scale ** p * M.eval(u), rel=1e-12
            )


class TestLuxemburgNorm:
    def test_power2_closed_form(self):
        assert luxemburg_norm([3.0, 4.0], POWER2) == pytest.approx(5.0, rel=1e-10)

    def test_zero_sequence(self):
        assert luxemburg_norm([0.0, 0.0, 0.0], POWER2) == 0.0
        assert luxemburg_norm([], POWER2) == 0.0

    def test_power1_single_term(self):
        assert luxemburg_norm([1.0], OrliczFunction.power(1.0)) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            luxemburg_norm([1.0, math.inf], POWER2)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_matches_lp_norm(self, p):
        M = OrliczFunction.power(p)
        rng = random.Random(int(p) * 1000 + 1)
        for _ in range(100):
            x = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 12))]
            lp = sum(abs(v) ** p for v in x) ** (1.0 / p)
            assert abs(luxemburg_norm(x, M) - lp) <= 1e-9 * max(1.0, lp)

    def test_constraint_at_norm_is_admissible(self):
        rng = random.Random(8)
        for _ in range(50):
            x = [rng.uniform(-5, 5) for _ in range(6)]
            rho = luxemburg_norm(x, XLOG)
            total = math.fsum(XLOG.eval(abs(v) / rho) for v in x)
            assert total <= 1.0 + 1e-9

    def test_flat_zero_table_norm(self):
        # M = max(0, t - 1): norm is max|x| / (1 + 1/sum-ish); just check
        # admissibility and that the monotonicity checks stay quiet
        M = OrliczFunction.table([(0, 0), (1, 0), (2, 1)])
        rho = luxemburg_norm([2.0, 3.0], M)
        assert rho > 0
        assert math.fsum(M.eval(abs(v) / rho) for v in [2.0, 3.0]) <= 1.0 + 1e-9

    def test_sum_beyond_double_range_saturates(self):
        # each term is finite at rho = 1 but their sum is not
        x = [10**38.5] * 4
        assert luxemburg_norm(x, OrliczFunction.power(8.0)) == pytest.approx(
            10**38.5 * 4 ** (1 / 8), rel=1e-10
        )
        assert luxemburg_norm(x, OrliczFunction.power(8.0)) == pytest.approx(
            3.7606e38, rel=1e-4
        )

    def test_no_admissible_scale_raises(self):
        # needs rho >= 4e308: beyond the solver's 2**200 doubling range
        with pytest.raises(ArithmeticError, match="no admissible scale"):
            luxemburg_norm([1e308] * 4, OrliczFunction.power(1.0))

    def test_non_monotone_table_raises(self):
        # M(2.7) = 1.64 at rho = 1 but M(1.35) = 2.075 at rho = 2
        M = OrliczFunction.table([(0, 0), (1, 0.5), (2, 5), (3, 0.2), (4, 6)])
        with pytest.raises(ScaleSolverError):
            luxemburg_norm([2.7], M)


class TestSolveScale:
    def test_bisects_to_the_infimum(self):
        assert solve_scale(lambda r: 3.0 / r, 1e-12) == pytest.approx(3.0, rel=1e-12)

    def test_no_admissible_scale_is_inf(self):
        assert solve_scale(lambda r: 2.0, 1e-12, max_iter=20) == math.inf

    def test_every_scale_admissible_is_zero(self):
        assert solve_scale(lambda r: 0.5, 1e-12) == 0.0

    def test_increasing_constraint_raises(self):
        with pytest.raises(ScaleSolverError):
            solve_scale(lambda r: r, 1e-12)


class TestSmallArgumentThreshold:
    def test_power_closed_form(self):
        assert small_argument_threshold(POWER2, 0.04) == pytest.approx(0.2, rel=1e-9)

    def test_threshold_below_cap(self):
        d = small_argument_threshold(EXPM1, 0.1)
        assert 0 < d < 1
        assert EXPM1.eval(d) <= 0.1 + 1e-12

    def test_large_eps_hits_cap(self):
        assert small_argument_threshold(OrliczFunction.power(1.0), 10.0) == 0.999
