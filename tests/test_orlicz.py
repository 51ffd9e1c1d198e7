"""Orlicz families, the scale solver, doubling constants, Luxemburg norm."""

import math
import random
import sys
from dataclasses import dataclass, field

import pytest

from geoseq import (
    DegenerateOrliczError,
    OrliczFunction,
    ScaleSolverError,
    delta2_constant,
    luxemburg_norm,
)
from geoseq.orlicz import ScaleBracket, _zeroin, bracket_scale
from geoseq.orlicz_checks import (
    _GRID,
    _GRID_DESCRIPTION,
    Delta2Report,
    small_argument_threshold,
)

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

    # a finite final slope, and two that overflow to inf: 1.5 / 5e-324 on
    # subnormal knots, and 5e307 / 2**-51 after finite segments
    TABLES = [
        [[0, 0], [0.5, 0.2], [1, 1], [2, 3.5], [4, 10]],
        [[0, 0], [5e-324, 1.0], [1e-323, 2.5]],
        [[0, 0], [1.0, 2.0], [2.0, 1e308], [2.0 + 2 ** -51, 1.5e308]],
    ]

    @pytest.mark.parametrize("points", TABLES, ids=["finite", "steep", "steep_last"])
    def test_table_is_its_knot_value_at_every_knot(self, points):
        M = OrliczFunction.table(points)
        knots = [float(t) for t, _ in points]
        values = [float(m) for _, m in points]
        assert [M.eval(t) for t in knots] == values
        assert M.eval_many(knots) == values

    @pytest.mark.parametrize("points", TABLES, ids=["finite", "steep", "steep_last"])
    def test_table_extrapolates_beyond_the_last_knot_without_nan(self, points):
        M = OrliczFunction.table(points)
        (t0, m0), (t1, m1) = (tuple(map(float, pt)) for pt in points[-2:])
        slope = (m1 - m0) / (t1 - t0)
        beyond = [math.nextafter(t1, math.inf), 2.0 * t1, t1 + 1.0, 1e300]
        want = [m1 + slope * (t - t1) for t in beyond]  # inf for an infinite slope
        assert [M.eval(t) for t in beyond] == want
        assert M.eval_many(beyond) == want
        if math.isinf(slope):
            assert want == [math.inf] * len(beyond)
        ts = beyond + [t for t, _ in M.points] + list(_BATCH_INPUTS)
        assert not any(map(math.isnan, M.eval_many(ts)))

    def test_table_structure_validated(self):
        with pytest.raises(ValueError):
            OrliczFunction.table([(0, 0)])
        with pytest.raises(ValueError):
            OrliczFunction.table([(0.5, 0), (1, 1)])
        with pytest.raises(ValueError):
            OrliczFunction.table([(0, 0), (1, 1), (1, 2)])

    @pytest.mark.parametrize("kind, p, points, message", [
        ("cubic", None, None, "unknown Orlicz function kind 'cubic'"),
        ("power", None, None, "power Orlicz function needs 'p'"),
        ("x_log1p", 2.0, None, "x_log1p Orlicz function takes no 'p'"),
        ("table", None, None, "table Orlicz function needs 'points'"),
        ("exp_minus_one", None, [(0, 0), (1, 1)], "takes no 'points'"),
        ("power", 2.0, [(0, 0), (1, 1)], "power Orlicz function takes no 'points'"),
        ("power", 0.5, None, "power family needs p >= 1"),
    ])
    def test_constructor_checks_kind_and_parameters(self, kind, p, points, message):
        with pytest.raises(ValueError, match=message):
            OrliczFunction(kind, p, points)

    def test_constructor_normalises_parameters(self):
        assert type(OrliczFunction("power", 2).p) is float
        M = OrliczFunction("table", points=[[0, 0], [1, 2]])
        assert M.points == ((0.0, 0.0), (1.0, 2.0))
        assert M == OrliczFunction.table([(0, 0), (1, 2)])
        assert hash(M) == hash(OrliczFunction.table([(0.0, 0.0), (1.0, 2.0)]))

    def test_config_round_trip(self):
        for M in (POWER2, EXPM1, XLOG, OrliczFunction.table([(0, 0), (1, 2)])):
            assert OrliczFunction(**M.describe()) == M


# zeros, subnormals and 1e-300..1e300, plus values that overflow some kinds
_BATCH_INPUTS = (
    [0.0, 5e-324, 2.5e-320, 1e-300, 1e-30, 0.5, 1.0, 2.0, 700.0, 709.7, 710.0]
    + [10.0 ** e for e in range(-300, 301, 25)]
    + [1e200, 800.0, 1e300]
)
_TABLE = OrliczFunction.table([(0, 0), (0.5, 0.2), (1, 1), (2, 3.5), (4, 10)])


def _per_term(M: OrliczFunction, t: float) -> float:
    """M(t) written out one term at a time for each family, the reference
    that both ``eval`` and ``eval_many`` must match bit for bit."""
    if t == 0.0:
        return 0.0
    try:
        if M.kind == "power":
            return t ** M.p
        if M.kind == "exp_minus_one":
            return math.expm1(t)
    except OverflowError:
        return math.inf
    if M.kind == "x_log1p":
        return t * math.log1p(t)
    return M._eval_table(t)


_BIG = sys.float_info.max
# 5e-324 to inf and NaN: every 8th power of two, every 5th power of ten,
# and each family's overflow edge with its two neighbours
_WIDE_INPUTS = sorted(
    {2.0 ** e for e in range(-1074, 1024, 8)}
    | {10.0 ** e for e in range(-320, 309, 5)}
    | {
        math.nextafter(t, d)
        for t in (5e-324, sys.float_info.min, 1.0, math.log(_BIG), _BIG ** 0.5,
                  _BIG ** (1 / 3.5), _BIG ** (1 / 1.0000001), _BIG)
        for d in (0.0, t, math.inf)
    }
    - {0.0}
) + [math.nan]
# the four powers include p just above 1, whose overflow edge is just below _BIG
_FORMULA_CASES = [OrliczFunction.power(p) for p in (1.0, 2.0, 3.5, 1.0000001)] + [
    XLOG, EXPM1, _TABLE, OrliczFunction.table(TestEval.TABLES[2])
]


@dataclass(frozen=True)
class ShiftedOrlicz(OrliczFunction):
    """A user subclass whose ``eval`` differs from the built-in family."""

    calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def eval(self, t: float) -> float:
        self.calls[0] += 1
        return 2.0 * OrliczFunction.eval(self, t)


class TestEvalMany:
    @pytest.mark.parametrize(
        "M",
        [POWER2, OrliczFunction.power(1.0), OrliczFunction.power(2.5), EXPM1, XLOG, _TABLE],
        ids=lambda M: f"{M.kind}{M.p or ''}",
    )
    def test_equals_per_term_eval_bit_for_bit(self, M):
        got = M.eval_many(_BATCH_INPUTS)
        want = [M.eval(t) for t in _BATCH_INPUTS]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    # TestEval's tables (one with a finite final slope, two whose final slope
    # overflows), _TABLE, and a deliberately non-convex one with a negative knot
    @pytest.mark.parametrize(
        "points",
        TestEval.TABLES + [_TABLE.points, [[0, 0], [1, -1], [3, 4], [3.5, 4.25]]],
        ids=["finite", "steep", "steep_last", "workload", "non_convex"],
    )
    def test_table_equals_per_term_eval_bit_for_bit(self, points):
        M = OrliczFunction.table(points)
        knots = [t for t, _ in M.points]
        segments = zip(knots, knots[1:])
        between = [t0 + f * (t1 - t0) for t0, t1 in segments for f in (0.25, 0.5, 0.9)]
        near = [math.nextafter(t, d) for t in knots[1:] for d in (0.0, math.inf)]
        last = knots[-1]
        beyond = [2.0 * last, last + 1.0, 1e300, sys.float_info.max, math.inf]
        ts = [0.0] + between + knots + near + beyond + list(_BATCH_INPUTS)
        got = M.eval_many(ts)
        want = [M.eval(t) for t in ts]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert got[0] == 0.0 and not any(map(math.isnan, got))

    @pytest.mark.parametrize("M", _FORMULA_CASES, ids=lambda M: f"{M.kind}{M.p or ''}")
    def test_eval_and_eval_many_are_the_per_term_formula(self, M):
        want = [repr(_per_term(M, t)) for t in _WIDE_INPUTS]
        assert [repr(M.eval(t)) for t in _WIDE_INPUTS] == want
        assert list(map(repr, M.eval_many(_WIDE_INPUTS))) == want
        # one term per batch: no neighbour's overflow decides its path
        assert [repr(M.eval_many([t])[0]) for t in _WIDE_INPUTS] == want

    @pytest.mark.parametrize("M, want", [
        (OrliczFunction.power(1.0), "-0.0"), (OrliczFunction.power(3.0), "-0.0"),
        (EXPM1, "-0.0"), (POWER2, "0.0"), (OrliczFunction.power(2.5), "0.0"),
        (XLOG, "0.0"), (_TABLE, "0.0"),
    ], ids=["power1", "power3", "exp_minus_one", "power2", "power2.5", "x_log1p", "table"])
    def test_negative_zero_keeps_the_formulas_sign(self, M, want):
        # eval returns 0.0 at -0.0; the batch gives what its formula gives
        # (list(ts), t ** 3.0 and expm1 keep the sign), an equal zero
        got = M.eval_many([-0.0])[0]
        assert repr(M.eval(-0.0)) == "0.0" and got == 0.0
        assert repr(got) == want

    def test_overflow_saturates_like_eval(self):
        assert POWER2.eval_many([1.0, 1e200, 3.0]) == [1.0, math.inf, 9.0]
        assert EXPM1.eval_many([0.0, 800.0]) == [0.0, math.inf]

    def test_empty(self):
        for M in (POWER2, EXPM1, XLOG, _TABLE):
            assert M.eval_many([]) == []

    @pytest.mark.parametrize("kind, p, points", [
        ("power", 2.0, None),
        ("power", 1.0, None),
        ("exp_minus_one", None, None),
        ("table", None, _TABLE.points),
    ], ids=["power-2.0", "power-1.0", "exp_minus_one-None", "table"])
    def test_overriding_eval_is_called_once_per_term(self, kind, p, points):
        M = ShiftedOrlicz(kind, p, points)
        ts = [0.0, 0.5, 1.5, 1e200]
        assert M.eval_many(ts) == [2.0 * OrliczFunction(kind, p, points).eval(t) for t in ts]
        assert M.calls[0] == len(ts)


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

    # every built-in family, and every table this file builds: convex,
    # non-convex, flat at zero (M(u) = 0 on the grid) and overflowing slopes
    FAMILIES = [
        OrliczFunction.power(1.0), POWER2, OrliczFunction.power(2.5),
        OrliczFunction.power(3.0), EXPM1, XLOG,
    ] + [OrliczFunction.table(points) for points in TestEval.TABLES + [
        [(0, 0), (0.5, 0.2), (1, 1), (2, 3.5), (4, 10)],
        [(0, 0), (0.5, 0.2), (1, 1), (2, 3.5)],
        [(0, 0), (1, 1), (2, 3)],
        [(0, 0), (1, 2)],
        [(0, 0), (1, 2), (2, 5)],
        [(0, 0), (1, 2), (2, 1)],
        [(0, 0), (1, 10), (2, 11)],
        [(0, 0), (1, 0), (2, 1)],
        [(0, 0), (1, 0.5), (2, 5), (3, 0.2), (4, 6)],
        [(0, 0), (1e-20, 1.0), (2e-20, 2.5)],
        [(0, 0), (1e-30, 1.0), (2e-30, 2.5)],
        [(0, 0), (5e-324, 1.0), (1.0, 2.0), (2.0, 4.0)],
    ]]
    # ends past where power(3) and e**t - 1 overflow, and a point where the
    # flat table is zero after positive values (M(3) = 0 for [(0,0),(1,2),(2,1)])
    USER_GRID = [1e-3, 0.25, 0.5, 1.0, 3.0, 400.0, 800.0, 1e120, 1e200]

    @staticmethod
    def scalar_reference(M, grid=None):
        """The doubling report by one scalar ``eval`` pair per grid point."""
        if grid is None:
            grid, desc = _GRID, _GRID_DESCRIPTION
        else:
            grid, desc = [float(g) for g in grid], f"user grid, {len(grid)} points"
        ratios, clipped = [], 0
        for u in grid:
            mu, m2u = M.eval(u), M.eval(2.0 * u)
            if mu == 0.0:
                raise DegenerateOrliczError(
                    f"M({u}) = 0 for positive argument; doubling ratio undefined"
                )
            if math.isinf(mu):
                clipped += 1
            else:
                ratios.append((u, m2u / mu))
        if not ratios:
            raise DegenerateOrliczError("no finite doubling ratios on the grid")
        K = max(r for _, r in ratios)
        log_lo, log_hi = math.log(ratios[0][0]), math.log(ratios[-1][0])
        cut = log_lo + (2.0 / 3.0) * (log_hi - log_lo)
        head = [r for u, r in ratios if math.log(u) <= cut]
        tail = [r for u, r in ratios if math.log(u) > cut]
        growth = max(tail) / max(head) if head and tail else 1.0
        satisfied = math.isfinite(K) and growth <= 1.0 + 1e-6 and clipped == 0
        analytic = {"power": True, "exp_minus_one": False, "x_log1p": True}.get(M.kind)
        return Delta2Report(satisfied, K, analytic, desc, growth, clipped)

    @pytest.mark.parametrize("grid", [None, USER_GRID], ids=["default_grid", "user_grid"])
    @pytest.mark.parametrize("M", FAMILIES, ids=repr)
    def test_batch_report_equals_the_scalar_loop(self, M, grid):
        try:
            want = self.scalar_reference(M, grid)
        except DegenerateOrliczError as exc:
            with pytest.raises(DegenerateOrliczError) as got:
                delta2_constant(M, grid)
            assert str(got.value) == str(exc)
            return
        assert repr(delta2_constant(M, grid)) == repr(want)  # repr: NaN and -0.0 too

    def test_reference_covers_clipping_and_both_errors(self):
        assert self.scalar_reference(EXPM1).clipped > 0
        flat = OrliczFunction.table([(0, 0), (1, 0), (2, 1)])
        with pytest.raises(DegenerateOrliczError, match=r"M\(1e-06\) = 0"):
            self.scalar_reference(flat)
        falls = OrliczFunction.table([(0, 0), (1, 2), (2, 1)])
        with pytest.raises(DegenerateOrliczError, match=r"M\(3.0\) = 0"):
            self.scalar_reference(falls, self.USER_GRID)
        steep = OrliczFunction.table(TestEval.TABLES[1])
        with pytest.raises(DegenerateOrliczError, match="no finite doubling ratios"):
            self.scalar_reference(steep)

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

    def test_tolerance_and_probe_cap_are_fixed(self):
        with pytest.raises(TypeError):
            luxemburg_norm([3.0, 4.0], POWER2, rel_tol=1e-6)
        with pytest.raises(TypeError):
            luxemburg_norm([3.0, 4.0], POWER2, max_iter=20)

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

    @pytest.mark.parametrize("unit", [1e-100, 1e100])
    def test_scale_far_from_one(self, unit):
        # the bracket gallops over the exponent of the scale, so no count
        # of halvings or doublings from r = 1 limits the range
        rho = luxemburg_norm([unit, 2.0 * unit], OrliczFunction.power(1.0))
        assert rho == pytest.approx(3.0 * unit, rel=1e-12)

    def test_non_monotone_table_raises(self):
        # M(2.7) = 1.64 at rho = 1 but M(1.35) = 2.075 at rho = 2
        M = OrliczFunction.table([(0, 0), (1, 0.5), (2, 5), (3, 0.2), (4, 6)])
        with pytest.raises(ScaleSolverError):
            luxemburg_norm([2.7], M)


class TestSolveScale:
    def test_bisects_to_the_infimum(self):
        assert bracket_scale(lambda r: 3.0 / r, 1e-12).hi == pytest.approx(3.0, rel=1e-12)

    def test_no_admissible_scale_is_inf(self):
        assert bracket_scale(lambda r: 2.0, 1e-12, max_iter=20).hi == math.inf

    def test_every_scale_admissible_is_zero(self):
        assert bracket_scale(lambda r: 0.5, 1e-12).hi == 0.0

    def test_increasing_constraint_raises(self):
        with pytest.raises(ScaleSolverError):
            bracket_scale(lambda r: r, 1e-12)

    @pytest.mark.parametrize("root", [5e-324 * 7, 3e-300, 1e-150, 0.3, 2.7, 3e150, 1.5e308])
    def test_whole_double_range(self, root):
        # g = root / r: ln g is linear in ln r, so after at most 13 bracket
        # probes a secant step lands on the root and one more probe closes
        # the bracket (subnormal roots, with few bits, take a few more)
        res = bracket_scale(lambda r: root / r, 1e-11)
        assert res.lo < root <= res.hi
        assert res.hi - res.lo <= 1e-11 * res.hi or math.nextafter(res.lo, math.inf) == res.hi
        assert res.probes <= 17

    def test_bracket_fields(self):
        def constraint(r):
            return math.fsum(XLOG.eval(v / r) for v in (1.0, 2.5, 4.0))

        res = bracket_scale(constraint, 1e-12)
        assert constraint(res.lo) > 1.0 >= constraint(res.hi) == res.g_hi
        assert res.hi - res.lo <= 1e-12 * res.hi

    def test_unbracketed_ends(self):
        assert bracket_scale(lambda r: 2.0, 1e-12) == ScaleBracket(
            sys.float_info.max, math.inf, None, 12
        )
        assert bracket_scale(lambda r: 0.5, 1e-12) == ScaleBracket(0.0, 0.0, None, 13)

    @pytest.mark.parametrize(
        "above, below",
        [(2.0, 0.5), (math.inf, 0.0), (2.0, 1.0), (1e300, 1e-300)],
    )
    def test_step_constraint_ends_by_bisection(self, above, below):
        # no secant step helps on a step function: bisection in ln r from
        # the bracket [2, 4] needs about 36 probes to reach rel_tol.  Where
        # g is exactly 1 above the step, one probe next to that end finds
        # g = 1 again, and from then on a zero step is a bisection.
        res = bracket_scale(lambda r: above if r < 3.0 else below, 1e-11)
        assert res.lo < 3.0 <= res.hi
        assert res.hi - res.lo <= 1e-11 * res.hi
        assert res.probes <= 45

    def test_max_iter_exhausted_raises(self):
        # the step function needs about 40 probes
        with pytest.raises(ScaleSolverError, match="20 probes"):
            bracket_scale(lambda r: 2.0 if r < 3.0 else 0.5, 1e-11, max_iter=20)


class TestZeroin:
    """The secant-and-bisection loop shared by the scale solver and the limit centre."""

    @staticmethod
    def counted(f):
        xs = []

        def probe(x):
            xs.append(x)
            return f(x)

        return probe, xs

    def test_linear_function_is_hit_by_one_secant_step(self):
        # f = -D for power(2): linear, so the secant through the two ends
        # lands on the root and one probe tol / 2 past it closes the bracket
        f, xs = self.counted(lambda x: 0.7 - 2.0 * x)
        b, c = (2.0, f(2.0)), (-1.0, f(-1.0))
        del xs[:]
        (lo, f_lo), (hi, f_hi) = _zeroin(f, b, c, 1e-12)
        assert abs(xs[0] - 0.35) <= 1e-15
        assert len(xs) <= 2
        assert lo <= 0.35 <= hi and hi - lo <= 1e-12
        assert f_lo > 0.0 >= f_hi

    def test_step_function_ends_by_bisection(self):
        f, xs = self.counted(lambda x: 1.0 if x < 0.3 else -1.0)
        (lo, f_lo), (hi, f_hi) = _zeroin(f, (1.0, -1.0), (-1.0, 1.0), 1e-9)
        assert lo < 0.3 <= hi and hi - lo <= 1e-9
        assert (f_lo, f_hi) == (1.0, -1.0)
        assert len(xs) <= 33  # log2(2 / 1e-9) = 31 bisections

    def test_exact_zero_is_returned_at_once(self):
        # a root the secant hits exactly ends the search, bracket open
        f, xs = self.counted(lambda x: 0.5 - x)
        (lo, _), (hi, f_hi) = _zeroin(f, (1.0, -0.5), (0.0, 0.5), 1e-12)
        assert xs == [0.5]
        assert (hi, f_hi) == (0.5, 0.0) and lo == 0.0

    def test_log_scale_steps_from_a_zero_once(self):
        # ln g = 0 at r = 1 and below it: one probe next to 1 closes the
        # bracket where g falls through 1 there ...
        f, xs = self.counted(lambda r: math.log(1.0 / r))
        (lo, _), (hi, _) = _zeroin(f, (1.0, 0.0), (0.5, math.log(2.0)), 1e-11, log=True)
        assert (hi, len(xs)) == (1.0, 1) and hi - lo <= 1e-11
        # ... and where g stays 1 below it, the rest is bisected
        f, xs = self.counted(lambda r: 0.0 if r >= 0.7 else 1.0)
        (lo, _), (hi, _) = _zeroin(f, (1.0, 0.0), (0.5, 1.0), 1e-11, log=True)
        assert lo < 0.7 <= hi and hi - lo <= 1e-11 * hi
        assert len(xs) <= 40


class TestDerivativeMany:
    KINDS = [
        OrliczFunction.power(1.0), POWER2, OrliczFunction.power(3.5), XLOG, EXPM1,
        OrliczFunction.table([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0], [2.0, 3.5]]),
    ]

    @pytest.mark.parametrize("M", KINDS, ids=lambda M: f"{M.kind}{M.p or ''}")
    def test_matches_the_right_difference_quotient(self, M):
        ts = [0.0, 1e-3, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 20.0]
        h = 1e-7
        for t, d in zip(ts, M.derivative_many(ts)):
            quotient = (M.eval(t + h) - M.eval(t)) / h
            assert d == pytest.approx(quotient, rel=1e-5, abs=1e-6)

    def test_table_takes_the_segment_to_the_right(self):
        M = OrliczFunction.table([[0.0, 0.0], [1.0, 2.0], [2.0, 5.0]])
        assert M.derivative_many([0.0, 0.5, 1.0, 2.0, 7.0]) == [2.0, 2.0, 3.0, 3.0, 3.0]

    def test_closed_forms_at_zero_and_beyond_range(self):
        assert [M.derivative_many([0.0])[0] for M in self.KINDS] == [
            1.0, 0.0, 0.0, 0.0, 1.0, 0.4,
        ]
        big = [800.0, 1e300, math.inf]
        assert EXPM1.derivative_many(big) == [math.inf] * 3
        assert XLOG.derivative_many([math.inf]) == [math.inf]
        assert OrliczFunction.power(3.5).derivative_many(big)[1:] == [math.inf] * 2

    @pytest.mark.parametrize("M", KINDS, ids=lambda M: f"{M.kind}{M.p or ''}")
    def test_batch_equals_each_term_alone(self, M):
        # an overflowing neighbour sends the batch to its saturating path,
        # where NaN must stay NaN (e**t at 1000 and at NaN: inf and NaN)
        ts = [1000.0, math.nan, 0.5, 1e300, 0.0]
        want = [repr(M.derivative_many([t])[0]) for t in ts]
        assert list(map(repr, M.derivative_many(ts))) == want
        if M.kind == "exp_minus_one":
            assert want[:2] == ["inf", "nan"]


class TestSmallArgumentThreshold:
    def test_power_closed_form(self):
        assert small_argument_threshold(POWER2, 0.04) == pytest.approx(0.2, rel=1e-9)

    def test_threshold_below_cap(self):
        d = small_argument_threshold(EXPM1, 0.1)
        assert 0 < d < 1
        assert EXPM1.eval(d) <= 0.1 + 1e-12

    def test_large_eps_hits_cap(self):
        assert small_argument_threshold(OrliczFunction.power(1.0), 10.0) == 0.999

    @staticmethod
    def eighty_bisections(M, eps):
        """The search before thresholds below 0.999 * 2**-80 were looked for."""
        if M.eval(0.999) <= eps:
            return 0.999
        lo, hi = 0.0, 0.999
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if M.eval(mid) <= eps:
                lo = mid
            else:
                hi = mid
        return lo

    @pytest.mark.parametrize("M", [
        POWER2, EXPM1, XLOG, OrliczFunction.power(1.0), OrliczFunction.power(3.5),
        OrliczFunction.table([[0, 0], [0.5, 0.2], [1.0, 1.0], [2.0, 3.5]]),
        OrliczFunction.table([[0, 0], [1e-20, 1.0], [2e-20, 2.5]]),
    ], ids=lambda M: f"{M.kind}{M.p or ''}{len(M.points or ())}")
    @pytest.mark.parametrize("eps", [1e-40, 1e-12, 0.04, 0.1, 0.5, 10.0])
    def test_thresholds_found_by_eighty_bisections_are_unchanged(self, M, eps):
        old = self.eighty_bisections(M, eps)
        if old > 0.0:
            assert small_argument_threshold(M, eps) == old

    @pytest.mark.parametrize("M, eps, delta", [
        (OrliczFunction.table([[0, 0], [1e-30, 1.0], [2e-30, 2.5]]), 0.1, 1e-31),
        (OrliczFunction.power(2.0), 1e-60, 1e-30),
        (OrliczFunction.power(1.0), 1e-300, 1e-300),
        (OrliczFunction.power(1.0), 1e-310, 1e-310),  # a subnormal threshold
    ])
    def test_threshold_below_two_to_the_minus_eighty(self, M, eps, delta):
        d = small_argument_threshold(M, eps)
        assert d == pytest.approx(delta, rel=1e-9 if d >= 2.0 ** -1022 else 1e-4)
        assert M.eval(d) <= eps

    def test_no_positive_double_qualifies(self):
        M = OrliczFunction.table([[0, 0], [5e-324, 1.0], [1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(DegenerateOrliczError, match="no positive small-argument"):
            small_argument_threshold(M, 0.1)
