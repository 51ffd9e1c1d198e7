"""Windows, windowed means, modulars, membership verdicts, paranorm."""

import math
import os
import random
import statistics
import subprocess
import sys
import textwrap
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

import geoseq
from geoseq import (
    BOUNDED,
    CONVERGING,
    DIVERGING,
    GEO_ZERO,
    INCONCLUSIVE,
    GeoRangeError,
    DensityTrace,
    Exponents,
    GeoScalar,
    LambdaSequence,
    OrliczFunction,
    ScaleSolverError,
    SpaceSpec,
    Tolerances,
    classify_membership,
    from_log,
    kernel_log_sequence,
    modular_window,
    paranorm,
    solve_scale,
    stat_converges,
    stat_density,
    vp_mean,
    window,
    window_trace,
    windowed_logs,
)
from geoseq import membership as summability
from geoseq.harness import generate_member
from geoseq.orlicz import _fsum_sat, _pow_sat
from geoseq.membership import _estimate_limit
from geoseq.summability import modular_mean, modular_trace, window_sums

P1 = OrliczFunction.power(1.0)
P2 = OrliczFunction.power(2.0)
E1 = Exponents.constant(1.0)


def spec(lam="identity", M=P1, p=E1, variant="zero", transform="identity", rho=1.0):
    lam_obj = {
        "identity": LambdaSequence.identity,
        "half": LambdaSequence.half,
        "sqrt": LambdaSequence.sqrt,
    }[lam]()
    return SpaceSpec(
        lam=lam_obj, orlicz=M, exponents=p, variant=variant,
        transform=transform, rho=rho,
    )


class TestLambdaSequence:
    def test_identity_window_example(self):
        assert list(window(4, LambdaSequence.identity())) == [1, 2, 3, 4]

    def test_half_window_example(self):
        lam = LambdaSequence.half()
        assert lam.at(4) == 2.0
        assert list(window(4, lam)) == [3, 4]

    def test_first_window(self):
        for lam in (LambdaSequence.identity(), LambdaSequence.half(), LambdaSequence.sqrt()):
            assert lam.at(1) == 1.0
            assert list(window(1, lam)) == [1]

    def test_sqrt_values_are_ceilings(self):
        lam = LambdaSequence.sqrt()
        for n in range(1, 200):
            assert lam.at(n) == math.ceil(math.sqrt(n))

    def test_builtin_invariants(self):
        for lam in (LambdaSequence.identity(), LambdaSequence.half(), LambdaSequence.sqrt()):
            vals = [lam.at(n) for n in range(1, 400)]
            assert vals[0] == 1.0
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(b <= a + 1.0 for a, b in zip(vals, vals[1:]))
            assert vals[-1] >= vals[len(vals) // 2 - 1] + 1.0

    def test_windows_never_reach_index_zero(self):
        for lam in (LambdaSequence.identity(), LambdaSequence.half(), LambdaSequence.sqrt()):
            for n in range(1, 100):
                assert min(window(n, lam)) >= 1

    def test_custom_validation(self):
        LambdaSequence.custom([1, 2, 3, 4])
        with pytest.raises(ValueError, match="start at 1"):
            LambdaSequence.custom([2, 3])
        with pytest.raises(ValueError, match="non-decreasing"):
            LambdaSequence.custom([1, 2, 1.5])
        with pytest.raises(ValueError, match="at most 1"):
            LambdaSequence.custom([1, 3])
        with pytest.raises(ValueError, match="keep growing"):
            LambdaSequence.custom([1, 2, 2, 2, 2, 2, 2, 2])
        for bad in ([math.nan], [1, math.nan, 2, 3], [1, 2, 3, math.nan]):
            with pytest.raises(ValueError, match="finite"):
                LambdaSequence.custom(bad)

    def test_non_integer_custom_windows(self):
        lam = LambdaSequence.custom([1.0, 1.5, 2.5, 2.5])
        # [n - lam(n) + 1, n] meets the integer lattice
        assert list(lam.window(2)) == [2]          # [1.5, 2]
        assert list(lam.window(3)) == [2, 3]       # [1.5, 3]
        assert list(lam.window(4)) == [3, 4]       # [2.5, 4]

    def test_at_bounds(self):
        with pytest.raises(ValueError):
            LambdaSequence.identity().at(0)
        with pytest.raises(ValueError):
            LambdaSequence.custom([1, 2]).at(3)


class TestVpMean:
    def test_cesaro_example(self):
        assert vp_mean([1, 2, 3, 4], 4, LambdaSequence.identity()) == 2.5

    def test_half_example(self):
        assert vp_mean([1, 2, 3, 4], 4, LambdaSequence.half()) == 3.5

    def test_constant_input(self):
        lam = LambdaSequence.sqrt()
        for n in (1, 3, 7, 16):
            assert vp_mean([4.25] * 16, n, lam) == pytest.approx(4.25, rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vp_mean([1, 2], 3, LambdaSequence.identity())


class TestExponents:
    def test_constant(self):
        p = Exponents.constant(1.5)
        assert p.at(1) == p.at(44) == 1.5
        assert p.H == 1.5
        assert p.B == pytest.approx(2.0 ** 0.5)

    def test_small_constant_keeps_floors(self):
        p = Exponents.constant(0.5)
        assert p.H == 1.0
        assert p.B == 1.0

    def test_formula(self):
        p = Exponents.formula(1.0, 1.0)  # 1 + 1/k
        assert p.at(1) == 2.0
        assert p.at(4) == 1.25
        assert p.sup == 2.0
        assert p.inf == 1.0
        assert p.H == 2.0
        assert p.B == 2.0

    def test_list(self):
        p = Exponents.from_list([1.0, 2.0, 3.0])
        assert p.at(2) == 2.0
        assert p.sup == 3.0
        with pytest.raises(ValueError):
            p.at(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponents.constant(0.0)
        with pytest.raises(ValueError):
            Exponents.from_list([1.0, -2.0])
        with pytest.raises(ValueError):
            Exponents.formula(1.0, -1.0)  # p(1) = 0
        with pytest.raises(ValueError):
            Exponents.from_list([])

    @pytest.mark.parametrize("kind, params, message", [
        ("constant", {}, "constant exponent needs 'value'"),
        ("list", {}, "list exponent needs 'values'"),
        ("formula", {"c": 1.0}, "formula exponent needs 'd'"),
        ("constant", {"value": 1.0, "c": 2.0}, "constant exponent takes no 'c'"),
        ("formula", {"c": 1.0, "d": 0.5, "values": [1.0]}, "takes no 'values'"),
    ])
    def test_parameters_checked_by_kind(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            Exponents(kind, **params)


class TestTolerances:
    def test_bounds_are_numbers(self):
        tols = Tolerances(tol=0, window_count=1, bound_cap=math.inf)
        assert type(tols.tol) is float and type(tols.bound_cap) is float
        assert Tolerances(tol=0.0) == Tolerances(tol=0)

    @pytest.mark.parametrize("field, value", [
        ("tol", math.nan), ("tol", math.inf), ("tol", -1e-9),
        ("window_count", 0), ("window_count", -3), ("window_count", True),
        ("window_count", 2.0), ("bound_cap", math.nan), ("bound_cap", 0.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})


class TestSpaceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(variant="nope")
        with pytest.raises(ValueError):
            spec(transform="nope")
        with pytest.raises(ValueError):
            spec(rho=0.0)

    def test_describe_round_trips_through_config(self):
        from geoseq.fileio import config_from_dict

        s = spec(lam="half", M=P2, p=Exponents.formula(1.0, 0.5), rho=2.0)
        d = s.describe()
        cfg = config_from_dict(
            {
                "lambda": d["lambda"],
                "orlicz": d["orlicz"],
                "exponents": d["exponents"],
                "variant": d["variant"],
                "transform": d["transform"],
                "rho": d["rho"],
            }
        )
        assert cfg.space_spec().describe() == d


class TestWindowedView:
    def test_identity_view_is_whole_log_view(self):
        x = from_log([5.0, 6.0, 7.0])
        assert windowed_logs(x, "identity") == [5.0, 6.0, 7.0]

    def test_transform_view_drops_boundary_row(self):
        from geoseq import difference_transform_log

        u = [1.0, 2.0, 3.0, 4.0]
        full = difference_transform_log(u)
        assert windowed_logs(from_log(u), "fhat") == full[1:]


    def test_transform_view_out_of_range_names_first_row(self):
        x = from_log([1.0, 1.0, 1e308, -1e308, 1e308])
        with pytest.raises(GeoRangeError, match=r"row 3 left double range"):
            windowed_logs(x, "fhat")


class TestModularWindow:
    def test_all_ones_vanishes(self):
        x = from_log([0.0] * 8)
        for variant in ("zero", "limit", "bounded"):
            s = spec(variant=variant, transform="fhat")
            for n in range(1, 8):
                assert modular_window(x, s, n, GEO_ZERO) == 0.0

    def test_cesaro_reduction_example(self):
        # identity transform, lam(n) = n, M = t, p = 1, classical scale 1
        x = from_log([1.0, 2.0, 3.0, 4.0])
        s = spec()
        assert modular_window(x, s, 4, GEO_ZERO) == 2.5

    def test_constant_sequence_limit_variant_vanishes(self):
        c = 0.5
        x = from_log([c] * 201)
        s = spec(lam="half", M=P1, variant="limit", transform="fhat")
        ell = GeoScalar.from_log(-c)
        assert modular_window(x, s, 200, ell) <= 1e-12

    def test_ell_ignored_outside_limit_variant(self):
        x = from_log([1.0, 2.0, 3.0, 4.0])
        s = spec()
        far = GeoScalar.from_log(100.0)
        assert modular_window(x, s, 4, far) == modular_window(x, s, 4, None)

    def test_invalid_window(self):
        x = from_log([1.0, 2.0])
        with pytest.raises(ValueError):
            modular_window(x, spec(), 3)

    def test_reduction_to_direct_cesaro_means(self):
        # identity transform + lam(n)=n + M=t + p=1 must equal plain
        # running means of |u_k - L|, computed independently
        rng = random.Random(77)
        u = [rng.uniform(-4, 4) for _ in range(50)]
        x = from_log(u)
        s = spec(variant="limit")
        L = 0.75
        trace = window_trace(x, s, GeoScalar.from_log(L))
        for n in range(1, 51):
            direct = sum(abs(v - L) for v in u[:n]) / n
            assert trace[n - 1] == pytest.approx(direct, rel=1e-12)


class TestClassify:
    def test_all_ones_converging(self):
        x = from_log([0.0] * 60)
        rep = classify_membership(x, spec(lam="half", M=P2, transform="fhat"))
        assert rep.verdict == CONVERGING
        assert rep.limit_estimate is None

    def test_constant_sequence_limit_estimate(self):
        for c in (-2.0, 0.5, 3.0):
            x = from_log([c] * 200)
            s = spec(lam="half", M=P2, variant="limit", transform="fhat")
            rep = classify_membership(x, s)
            assert rep.verdict == CONVERGING
            assert abs(rep.limit_estimate.log + c) <= 1e-3

    def test_alternating_diverges(self):
        u = [0.0 if k % 2 == 0 else 10.0 for k in range(80)]
        rep = classify_membership(from_log(u), spec())
        assert rep.verdict == DIVERGING
        # windowed means stay near M(10)/2, far from zero
        assert min(rep.window_values[10:]) > 1.0

    def test_too_short_is_inconclusive_with_reason(self):
        x = from_log([0.0] * 10)
        rep = classify_membership(x, spec())
        assert rep.verdict == INCONCLUSIVE
        assert "too short" in rep.reason

    def test_bounded_variant_accepts_oscillation(self):
        rng = random.Random(3)
        u = [rng.uniform(-2, 2) for _ in range(80)]
        rep = classify_membership(from_log(u), spec(variant="bounded"))
        assert rep.verdict == BOUNDED

    def test_bounded_variant_rejects_growth(self):
        u = [float(k) for k in range(1, 81)]
        rep = classify_membership(from_log(u), spec(variant="bounded"))
        assert rep.verdict == DIVERGING

    def test_slowly_decaying_cesaro_tail_is_inconclusive(self):
        # one early spike under lam(n) = n decays like 1/n: honest answer
        # at tol 1e-6 on 80 windows is "not settled"
        u = [50.0] + [0.0] * 79
        rep = classify_membership(from_log(u), spec())
        assert rep.verdict == INCONCLUSIVE

    def test_report_carries_trace(self):
        x = from_log([0.0] * 50)
        rep = classify_membership(x, spec())
        assert len(rep.window_values) == 50
        assert len(rep.lambda_values) == 50
        assert rep.params_used["windows"] == 50

    def test_small_rising_tail_splits_the_two_verdicts(self):
        # every tail value sits below tol, but the tail median rose far more
        # than 1.1x over the previous W windows: the membership verdict
        # refuses it, the density verdict (no trend step) accepts it
        u = [0.0] * 20 + [1e-8 * k for k in range(1, 21)]
        rep = classify_membership(from_log(u), spec(lam="half"))
        tail = rep.window_values[-10:]
        assert max(tail) <= 1e-6
        assert statistics.median(tail) > 1.1 * statistics.median(rep.window_values[-20:-10])
        assert rep.verdict == INCONCLUSIVE
        trace = DensityTrace(
            counts=[0] * 40,
            densities=rep.window_values,
            lambda_values=rep.lambda_values,
            epsilon=GeoScalar.from_log(1.0),
            ell=GEO_ZERO,
        )
        assert stat_converges(trace) == CONVERGING


class TestParanorm:
    def test_zero_sequence(self):
        res = paranorm(from_log([0.0] * 30), spec(transform="fhat"))
        assert res.rho_star == 0.0
        assert res.g == 0.0
        assert res.g_geo == GEO_ZERO

    def test_kernel_witness_half_windows(self):
        # transformed rows vanish beyond the boundary, windows never see
        # the boundary: paranorm 0 though the sequence is far from the
        # geometric zero (the non-totality witness); tolerance is the
        # float cancellation scale of the construction (~1e-6)
        x = from_log(kernel_log_sequence(26))
        s = spec(lam="half", transform="fhat")
        res = paranorm(x, s)
        assert res.g <= 1e-5
        assert max(abs(v) for v in x.logs) > 1.0  # not the zero sequence

    def test_closed_form_scale(self):
        x = from_log([1.0] + [0.0] * 39)
        res = paranorm(x, spec())
        assert res.rho_star == pytest.approx(1.0, abs=1e-9)
        assert res.g == pytest.approx(1.0, abs=1e-9)
        assert res.g_geo.log == pytest.approx(1.0, abs=1e-9)

    def test_variant_gate(self):
        with pytest.raises(ValueError):
            paranorm(from_log([0.0]), spec(variant="limit"))

    def test_negation_symmetry_exact(self):
        rng = random.Random(21)
        for _ in range(25):
            u = [rng.uniform(-3, 3) for _ in range(24)]
            s = spec(lam="half", M=P2, transform="fhat")
            g1 = paranorm(from_log(u), s).g
            g2 = paranorm(from_log([-v for v in u]), s).g
            assert g1 == g2

    def test_triangle_inequality(self):
        rng = random.Random(22)
        s = spec(lam="half", M=P1, transform="fhat")
        for _ in range(100):
            u = [rng.uniform(-3, 3) for _ in range(16)]
            v = [rng.uniform(-3, 3) for _ in range(16)]
            w = [a + b for a, b in zip(u, v)]
            gx = paranorm(from_log(u), s).g
            gy = paranorm(from_log(v), s).g
            gxy = paranorm(from_log(w), s).g
            assert gxy <= gx + gy + 1e-9

    def test_homogeneity_direction(self):
        # damping by |log| <= 1 scalars cannot increase the paranorm
        rng = random.Random(23)
        s = spec(lam="half", M=P2, transform="identity")
        for _ in range(25):
            u = [rng.uniform(-3, 3) for _ in range(20)]
            a = rng.uniform(-1, 1)
            g1 = paranorm(from_log(u), s).g
            g2 = paranorm(from_log([a * t for t in u]), s).g
            assert g2 <= g1 + 1e-9

    def test_exponent_profile_value(self):
        # constant p: g = rho_star**(p/H) with H = max(1, p)
        x = from_log([1.0] + [0.0] * 39)
        s = spec(p=Exponents.constant(2.0), M=P1)
        res = paranorm(x, s)
        assert res.g == pytest.approx(res.rho_star ** (2.0 / 2.0), rel=1e-12)

    def test_unrooted_constraint_matches_rooted_reference(self):
        # reference: the constraint sup_n S_n(r)**(1/H) <= 1, rooted per
        # window; paranorm tests sup_n S_n(r) <= 1 and roots only g.  A
        # secant step depends on the constraint's value, not only on its
        # side of 1, so the two solves agree within rel_tol, not bit for bit.
        rel_tol = 1e-11

        def constraints(z, s):
            def unrooted(r):
                return max(modular_trace(z, s.lam, s.orlicz, s.exponents, r))

            def rooted(r):
                trace = modular_trace(z, s.lam, s.orlicz, s.exponents, r)
                return max([0.0] + [_pow_sat(v, 1.0 / s.exponents.H) for v in trace])

            return unrooted, rooted

        orliczes = [
            OrliczFunction.power(1.0),
            OrliczFunction.power(2.5),
            OrliczFunction.exp_minus_one(),
            OrliczFunction.x_log1p(),
            OrliczFunction.table([[0, 0], [0.5, 0.2], [1, 1], [2, 3.5], [4, 10]]),
        ]
        rng = random.Random(31)
        for trial in range(120):
            m = rng.randint(8, 30)
            kind = ("constant", "formula", "list")[trial % 3]
            if kind == "constant":
                p = Exponents.constant(rng.uniform(1.01, 4.0))
            elif kind == "formula":
                p = Exponents.formula(rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0))
            else:
                p = Exponents.from_list([rng.uniform(0.3, 4.0) for _ in range(m)] + [2.0])
            assert p.H > 1.0
            s = spec(
                lam=rng.choice(["identity", "half", "sqrt"]),
                M=orliczes[trial % len(orliczes)],
                p=p,
                transform=("identity", "fhat")[trial // 3 % 2],
            )
            scale = 10.0 ** rng.uniform(-3.0, 1.5)
            x = from_log([rng.uniform(-scale, scale) for _ in range(m + 1)])
            unrooted, rooted = constraints(windowed_logs(x, s.transform), s)
            res = paranorm(x, s, rel_tol=rel_tol)
            rho = solve_scale(rooted, rel_tol, 200)
            # both scales are admissible and rel_tol below them is not; the
            # per-window root can round a sum a few ulps above 1 down to
            # 1.0, so the rooted scale may sit that far above 1 unrooted
            roundoff = s.exponents.H * math.ulp(1.0)
            assert unrooted(res.rho_star) <= 1.0 and rooted(res.rho_star) <= 1.0
            assert rooted(rho) <= 1.0 and unrooted(rho) <= 1.0 + roundoff
            for scale_star in (res.rho_star, rho):
                below = scale_star * (1.0 - rel_tol)
                assert unrooted(below) > 1.0 and rooted(below) > 1.0
            assert abs(res.rho_star - rho) <= rel_tol * max(res.rho_star, rho)
            assert res.g == res.rho_star ** (s.exponents.inf / s.exponents.H)


TABLE = OrliczFunction.table([[0, 0], [0.5, 0.2], [1, 1], [2, 3.5], [4, 10]])


def _pinned(rng, m, pin=2.7):
    # one term of size pin in window I(1) = {1}, every other at most 0.9
    # pin: the supremum sits at n = 1, so rho* = pin / M^-1(1)
    return [rng.choice((-1.0, 1.0)) * pin] + [
        rng.uniform(-0.9 * pin, 0.9 * pin) for _ in range(m - 1)
    ]


def _exact_sup(z, s, r):
    """sup_n S_n(r) in exact rational arithmetic: power or table M, integer p."""
    M, q = s.orlicz, int(s.exponents.value)
    if M.kind == "power":
        def m_exact(t):
            return t ** int(M.p)
    else:
        knots = [(Fraction(a), Fraction(b)) for a, b in M.points]

        def m_exact(t):
            i = next((i for i in range(1, len(knots)) if t < knots[i][0]), len(knots) - 1)
            (t0, m0), (t1, m1) = knots[i - 1], knots[i]
            return m0 + (m1 - m0) * (t - t0) / (t1 - t0)

    terms = [m_exact(abs(Fraction(v)) / r) ** q for v in z]
    prefix = [Fraction(0)]
    for t in terms:
        prefix.append(prefix[-1] + t)
    return max(
        (prefix[w.stop - 1] - prefix[w.start - 1]) / Fraction(s.lam.at(n))
        for n, w in enumerate(s.lam.windows(len(z)), 1)
    )


class TestParanormSolve:
    """The log-domain secant solver behind the paranorm: probes, bracket, exactness."""

    # (m, windows, M, exponents) of the benchmark's paranorm workload
    CONFIGS = [
        (400, "half", P2, E1),
        (400, "sqrt", P1, Exponents.constant(2.0)),
        (400, "half", OrliczFunction.x_log1p(), Exponents.formula(1.0, 1.0)),
        (400, "sqrt", TABLE, E1),
        (200, "half", P1, E1),
        (200, "sqrt", P2, Exponents.formula(1.0, 0.5)),
        (200, "half", TABLE, Exponents.formula(1.0, 1.0)),
        (200, "sqrt", OrliczFunction.x_log1p(), E1),
    ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("config", range(len(CONFIGS)))
    def test_probe_counts(self, config, seed):
        # bisection to rel_tol took 41 probes on each of these
        m, lam, M, p = self.CONFIGS[config]
        res = paranorm(from_log(_pinned(random.Random(seed), m)), spec(lam=lam, M=M, p=p))
        closed_form = M.kind == "power" and p.kind == "constant"
        assert res.probes <= (7 if closed_form else 10)
        lo, hi = res.bracket
        assert hi == res.rho_star and hi - lo <= 1e-11 * hi
        assert 0.0 <= res.constraint_at_hi <= 1.0

    @pytest.mark.parametrize(
        "M, p",
        [(P1, E1), (P1, Exponents.constant(2.0)), (P2, E1), (TABLE, E1),
         (TABLE, Exponents.constant(2.0))],
    )
    def test_exact_constraint_brackets_rho_star(self, M, p):
        rel_tol = 1e-11
        rng = random.Random(9)
        for trial in range(6):
            lam = ("half", "sqrt", "identity")[trial % 3]
            z = _pinned(rng, 60) if trial < 3 else [rng.uniform(-5, 5) for _ in range(60)]
            s = spec(lam=lam, M=M, p=p)
            rho = Fraction(paranorm(from_log(z), s, rel_tol=rel_tol).rho_star)
            # the solver decides on the float constraint, and a secant step
            # can land on its root: there the exact value may exceed 1 by
            # the float constraint's own rounding, a few ulps
            assert _exact_sup(z, s, rho) <= 1 + 4 * Fraction(math.ulp(1.0))
            assert _exact_sup(z, s, rho * (1 - Fraction(rel_tol))) > 1

    def test_solve_fields(self):
        x = from_log([1.0] + [0.0] * 39)
        res = paranorm(x, spec())
        assert res.rho_star == 1.0
        assert res.bracket[1] == 1.0 and res.constraint_at_hi == 1.0
        assert res.probes == 3  # r = 1, 1/2, then 1 - 5e-12 closes the bracket
        zero = paranorm(from_log([0.0] * 30), spec())
        assert (zero.probes, zero.bracket, zero.constraint_at_hi) == (0, None, None)


# a table whose constraint map rises with the scale between r = 1 and r = 2
NON_MONOTONE_TABLE = [[0, 0], [1, 0.5], [2, 5], [3, 0.2], [4, 6]]


class TestScaleSolverInvariant:
    def test_paranorm_raises(self):
        with pytest.raises(ScaleSolverError):
            paranorm(from_log([2.7] * 4), spec(M=OrliczFunction.table(NON_MONOTONE_TABLE)))

    def test_raises_under_optimisation(self):
        # python -O strips assert statements; the invariant must survive it
        code = textwrap.dedent(
            f"""
            from geoseq import OrliczFunction, ScaleSolverError, luxemburg_norm, paranorm
            from geoseq import Exponents, LambdaSequence, SpaceSpec, from_log
            M = OrliczFunction.table({NON_MONOTONE_TABLE!r})
            s = SpaceSpec(LambdaSequence.identity(), M, Exponents.constant(1.0),
                          variant="zero", transform="identity")
            print(__debug__)
            for call in (lambda: paranorm(from_log([2.7] * 4), s),
                         lambda: luxemburg_norm([2.7], M)):
                try:
                    call()
                except ScaleSolverError:
                    print("raised")
            """
        )
        src = str(Path(geoseq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "raised", "raised"]


def _custom_lambda(m):
    # non-integer admissible values: lam(n) = 1 + 0.4 (n - 1)
    return LambdaSequence.custom([1.0 + 0.4 * (n - 1) for n in range(1, m + 1)])


class TestSharedTrace:
    M_KINDS = [
        OrliczFunction.power(1.5),
        OrliczFunction.exp_minus_one(),
        OrliczFunction.x_log1p(),
        OrliczFunction.table([(0, 0), (0.5, 0.2), (1, 1), (2, 3.5), (4, 10)]),
    ]

    @pytest.mark.parametrize("lam_kind", ["identity", "half", "sqrt", "custom"])
    @pytest.mark.parametrize("M", M_KINDS, ids=lambda M: M.kind)
    def test_trace_matches_single_window_form(self, lam_kind, M):
        m = 45
        rng = random.Random(f"trace:{lam_kind}:{M.kind}")
        z = [rng.uniform(-2.5, 2.5) for _ in range(m)]
        lam = _custom_lambda(m) if lam_kind == "custom" else getattr(LambdaSequence, lam_kind)()
        exponent_kinds = [
            Exponents.constant(1.25),
            Exponents.from_list([rng.uniform(0.5, 3.0) for _ in range(m)]),
            Exponents.formula(1.0, 0.75),
        ]
        for p in exponent_kinds:
            for center in (0.0, 0.3):
                for scale in (0.7, 2.0):
                    got = modular_trace(z, lam, M, p, scale, center)
                    want = [
                        modular_mean(z, lam, M, p, scale, n, center)
                        for n in range(1, m + 1)
                    ]
                    assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_overflowing_windows_agree_with_single_window_form(self):
        z = [1e308, 1.5e308, 1e308, 2.0]
        lam = LambdaSequence.half()
        got = modular_trace(z, lam, P1, E1, 1.0)
        want = [modular_mean(z, lam, P1, E1, 1.0, n) for n in range(1, 5)]
        assert got == want == [1e308, 1.5e308, math.inf, 5e307]

    def test_window_sums_keep_integers(self):
        lam = LambdaSequence.half()
        sums = window_sums([1, 0, 1, 1, 0, 1], lam)
        assert sums == [1, 0, 1, 2, 2, 2]
        assert all(type(v) is int for v in sums)

    def test_window_sums_keep_large_integers_exact(self):
        big = 10**30
        sums = window_sums([big, 1, -big, 3], LambdaSequence.identity())
        assert sums == [big, big + 1, 1, 4]
        assert all(type(v) is int for v in sums)

    def test_stat_density_counts_stay_int(self):
        rng = random.Random(31)
        x = from_log([rng.uniform(-3, 3) for _ in range(60)])
        trace = stat_density(x, LambdaSequence.half(), GEO_ZERO, GeoScalar.from_log(0.5))
        assert all(type(c) is int for c in trace.counts)
        assert 0 < sum(trace.counts)


@dataclass(frozen=True)
class CountingOrlicz(OrliczFunction):
    """OrliczFunction that counts its evaluations."""

    calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def eval(self, t: float) -> float:
        self.calls[0] += 1
        return OrliczFunction.eval(self, t)


class TestEvaluationCounts:
    @pytest.mark.parametrize("lam", ["identity", "half", "sqrt"])
    def test_trace_evaluates_each_term_once(self, lam):
        m = 60
        M = CountingOrlicz("power", 2.0)
        s = spec(lam=lam, M=M)
        rng = random.Random(41)
        window_trace(from_log([rng.uniform(-2, 2) for _ in range(m)]), s)
        assert M.calls[0] == m

    @pytest.mark.parametrize(
        "kind, p", [("power", 2.0), ("x_log1p", None), ("exp_minus_one", None)]
    )
    def test_paranorm_probes_evaluate_whole_passes(self, kind, p):
        m = 31
        M = CountingOrlicz(kind, p)
        s = spec(lam="half", M=M, p=Exponents.formula(1.0, 1.0))
        rng = random.Random(43)
        paranorm(from_log([rng.uniform(-3, 3) for _ in range(m)]), s)
        assert M.calls[0] > 0
        assert M.calls[0] % m == 0


def _lambda_of(kind, m):
    return _custom_lambda(m) if kind == "custom" else getattr(LambdaSequence, kind)()


def _fsum_window(values, lam, n):
    """Reference window sum: math.fsum, or the exact sum where fsum overflows."""
    w = [values[k - 1] for k in lam.window(n)]
    try:
        return math.fsum(w)
    except OverflowError:
        exact = sum(map(Fraction, w))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _naive_window(values, lam, n):
    """Ascending ``+=`` over the window: the summation the exact sums replace."""
    total = 0.0
    for k in lam.window(n):
        total += values[k - 1]
    return total


def _mixed_terms(rng, m, signed=True):
    """Zeros, subnormals and magnitudes from 1e-300 to 1e300."""
    out = []
    for _ in range(m):
        r = rng.random()
        if r < 0.1:
            v = 0.0
        elif r < 0.2:
            v = rng.choice([5e-324, 2.5e-320, 1.1e-310])
        else:
            v = 10.0 ** rng.uniform(-300, 300)
        out.append(-v if signed and rng.random() < 0.5 else v)
    return out


class CountingTerms(Sequence):
    """Read-only sequence that counts its element reads."""

    def __init__(self, data):
        self.data = list(data)
        self.reads = 0

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        v = self.data[i]
        self.reads += 1
        return v


class CountingWindows(LambdaSequence):
    def __init__(self, base):
        super().__init__(base.kind, base.values)
        self.calls = 0

    def window(self, n):
        self.calls += 1
        return LambdaSequence.window(self, n)


class TestExactWindowSums:
    LAMBDAS = ["identity", "half", "sqrt", "custom"]

    def _check(self, values, lam):
        got = window_sums(values, lam)
        want = [_fsum_window(values, lam, n) for n in range(1, len(values) + 1)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        return got

    @pytest.mark.parametrize("lam_kind", LAMBDAS)
    def test_equals_fsum_over_mixed_magnitudes(self, lam_kind):
        m = 80
        lam = _lambda_of(lam_kind, m)
        for seed in range(5):
            rng = random.Random(f"exact:{lam_kind}:{seed}")
            self._check(_mixed_terms(rng, m), lam)
            self._check(_mixed_terms(rng, m, signed=False), lam)
            self._check([rng.uniform(0.0, 1.0) ** 4 for _ in range(m)], lam)

    @pytest.mark.parametrize("lam_kind", LAMBDAS)
    def test_zeros_and_subnormals_only(self, lam_kind):
        m = 40
        lam = _lambda_of(lam_kind, m)
        assert self._check([0.0] * m, lam) == [0.0] * m
        rng = random.Random(f"tiny:{lam_kind}")
        self._check([rng.choice([0.0, 5e-324, -5e-324, 3e-322]) for _ in range(m)], lam)

    @pytest.mark.parametrize("lam_kind", LAMBDAS)
    def test_infinite_terms(self, lam_kind):
        m = 50
        lam = _lambda_of(lam_kind, m)
        rng = random.Random(f"inf:{lam_kind}")
        values = _mixed_terms(rng, m, signed=False)
        values[10] = values[33] = math.inf
        got = self._check(values, lam)
        for n in range(1, m + 1):
            ks = lam.window(n)
            assert math.isinf(got[n - 1]) == (11 in ks or 34 in ks)
        self._check([-v for v in values], lam)

    @pytest.mark.parametrize("lam_kind", LAMBDAS)
    def test_overflowing_windows_saturate(self, lam_kind):
        m = 30
        lam = _lambda_of(lam_kind, m)
        rng = random.Random(f"huge:{lam_kind}")
        values = [rng.uniform(0.9, 1.7) * 1e308 for _ in range(m)]
        values[5] = 1e-300
        got = self._check(values, lam)
        for n in range(1, m + 1):
            huge = sum(1 for k in lam.window(n) if k != 6)
            assert (got[n - 1] == math.inf) == (huge >= 2)
        self._check([-v for v in values], lam)
        # mixed signs: the exact sum stays in range although a running sum does not
        alternating = [v if k % 2 else -v for k, v in enumerate(values)]
        self._check(alternating, lam)

    def test_nan_and_opposite_infinities_raise(self):
        lam = LambdaSequence.identity()
        with pytest.raises(ValueError, match="NaN"):
            window_sums([1.0, math.nan, 2.0], lam)
        with pytest.raises(ValueError, match="inf"):
            window_sums([math.inf, -math.inf, 1.0], lam)

    @pytest.mark.parametrize("lam_kind", LAMBDAS)
    def test_naive_running_sum_stays_within_its_bound(self, lam_kind):
        m = 120
        lam = _lambda_of(lam_kind, m)
        rng = random.Random(f"naive:{lam_kind}")
        values = [rng.uniform(0.0, 3.0) ** 3 for _ in range(m)]
        exact = window_sums(values, lam)
        for n in range(1, m + 1):
            size = len(lam.window(n))
            naive = _naive_window(values, lam, n)
            assert abs(naive - exact[n - 1]) <= size * 2.0**-53 * exact[n - 1]

    @pytest.mark.parametrize("values", [[0.25, 1.5, 3.0] * 100, [1, 0, 2] * 100])
    def test_reads_each_term_a_bounded_number_of_times(self, values):
        m = len(values)
        terms = CountingTerms(values)
        lam = CountingWindows(LambdaSequence.identity())
        sums = window_sums(terms, lam)
        assert sums[-1] == sum(values)
        assert terms.reads <= 2 * m
        assert lam.calls == m


class CountingAt(LambdaSequence):
    def __init__(self, base):
        super().__init__(base.kind, base.values)
        self.calls = 0

    def at(self, n):
        self.calls += 1
        return LambdaSequence.at(self, n)


class TestBulkWindowBounds:
    @pytest.mark.parametrize("lam_kind", ["identity", "half", "sqrt", "custom"])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 5000])
    def test_equal_per_n_calls(self, lam_kind, m):
        lam = _lambda_of(lam_kind, m)
        ns = range(1, m + 1)
        head = lam.head(m)
        assert [v.hex() for v in head] == [lam.at(n).hex() for n in ns]
        assert lam.windows(m) == [lam.window(n) for n in ns]

    def test_subclass_overriding_window_is_asked_per_window(self):
        lam = CountingWindows(LambdaSequence.sqrt())
        assert lam.windows(40) == LambdaSequence.sqrt().windows(40)
        assert lam.calls == 40
        window_sums([1.0] * 25, lam)
        assert lam.calls == 65

    def test_subclass_overriding_at_is_asked_per_n(self):
        lam = CountingAt(LambdaSequence.half())
        assert lam.head(30) == LambdaSequence.half().head(30)
        assert lam.calls == 30
        assert lam.windows(30) == LambdaSequence.half().windows(30)
        assert lam.calls == 60  # windows() goes through window(), which asks at()

    def test_classify_lambda_values(self):
        rng = random.Random(47)
        x = from_log([rng.uniform(-1, 1) for _ in range(70)])
        for kind in ("identity", "half", "sqrt"):
            rep = classify_membership(x, spec(lam=kind))
            assert rep.lambda_values == [spec(lam=kind).lam.at(n) for n in range(1, 71)]


class TestWindowPlan:
    """head, window starts and window sums from the built-in kinds' iterator
    passes equal the per-n formulas of ``at`` and ``window``."""

    KINDS = ("identity", "half", "sqrt")

    @staticmethod
    def check(lam, m, ns):
        head, starts = lam.head(m), lam._starts(m)
        assert len(head) == len(starts) == m
        for n in ns:
            assert head[n - 1].hex() == lam.at(n).hex()
            assert starts[n - 1] == lam.window(n).start - 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_m_up_to_200(self, kind):
        lam = getattr(LambdaSequence, kind)()
        rng = random.Random(kind)
        values = [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-20, 20) for _ in range(200)]
        for m in range(201):
            self.check(lam, m, range(1, m + 1))
            assert lam.windows(m) == [lam.window(n) for n in range(1, m + 1)]
            sums = window_sums(values[:m], lam)
            assert sums == [math.fsum(values[k - 1] for k in lam.window(n))
                            for n in range(1, m + 1)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_around_a_square(self, kind):
        lam, k = getattr(LambdaSequence, kind)(), 120
        rng = random.Random(k)
        values = [rng.uniform(-1.0, 1.0) for _ in range(k * k + 1)]
        for m in (k * k - 1, k * k, k * k + 1):
            self.check(lam, m, range(1, m + 1))
            sums = window_sums(values[:m], lam)
            for n in {1, 2, (k - 1) ** 2, (k - 1) ** 2 + 1, m - 2, m - 1, m}:
                assert sums[n - 1] == math.fsum(values[j - 1] for j in lam.window(n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_the_ends_around_a_large_square(self, kind):
        lam, k = getattr(LambdaSequence, kind)(), 1001
        for m in (k * k - 1, k * k, k * k + 1):
            self.check(lam, m, [1, 2, (k - 1) ** 2, (k - 1) ** 2 + 1, m - 1, m])


def _reference_trace(z, lam, M, p, scale, center=0.0):
    """Per-term saturating powers, fsum over each window: the pre-batch form."""
    terms = [
        _pow_sat(M.eval(abs(v - center) / scale), p.at(k)) for k, v in enumerate(z, 1)
    ]
    return [
        _fsum_sat(terms[k - 1] for k in lam.window(n)) / lam.at(n)
        for n in range(1, len(z) + 1)
    ]


@dataclass(frozen=True)
class HalvedOrlicz(OrliczFunction):
    """A user subclass whose ``eval`` differs from the built-in family."""

    calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def eval(self, t: float) -> float:
        self.calls[0] += 1
        return 0.5 * OrliczFunction.eval(self, t)


class TestBatchedTerms:
    EXPONENTS = [
        Exponents.constant(1.0),
        Exponents.constant(1.5),
        Exponents.formula(1.0, 1.0),
    ]
    M_KINDS = TestSharedTrace.M_KINDS + [P1, P2]

    @pytest.mark.parametrize("lam_kind", ["identity", "half", "sqrt", "custom"])
    @pytest.mark.parametrize("M", M_KINDS, ids=lambda M: f"{M.kind}{M.p or ''}")
    def test_trace_equals_per_term_form(self, lam_kind, M):
        m = 48
        rng = random.Random(f"batch:{lam_kind}:{M.kind}:{M.p}")
        z = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        z[7] = 1e200  # power(2) and exp_minus_one saturate this term
        lam = _lambda_of(lam_kind, m)
        for p in self.EXPONENTS + [Exponents.from_list([rng.uniform(1, 3) for _ in range(m)])]:
            for center in (0.0, -0.4):
                got = modular_trace(z, lam, M, p, 0.8, center)
                want = _reference_trace(z, lam, M, p, 0.8, center)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_power_overflow_of_the_exponent_saturates(self):
        # M is finite, its power is not
        z = [1e100, 0.5, 2.0]
        got = modular_trace(z, LambdaSequence.identity(), P2, Exponents.constant(4.0), 1.0)
        assert got == _reference_trace(
            z, LambdaSequence.identity(), P2, Exponents.constant(4.0), 1.0
        )
        assert got[0] == math.inf

    @pytest.mark.parametrize("kind, p", [("power", 1.0), ("power", 2.0), ("x_log1p", None)])
    def test_overriding_eval_is_called_once_per_term(self, kind, p):
        m = 50
        M = HalvedOrlicz(kind, p)
        rng = random.Random(53)
        z = [rng.uniform(-2, 2) for _ in range(m)]
        lam = LambdaSequence.half()
        got = modular_trace(z, lam, M, E1, 1.0)
        assert M.calls[0] == m
        plain = modular_trace(z, lam, OrliczFunction(kind, p), E1, 1.0)
        assert got == [0.5 * v for v in plain]


class CountingExponents(Exponents):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def at(self, k):
        self.calls += 1
        return Exponents.at(self, k)


class TestParanormPreparation:
    @staticmethod
    def per_probe_reference(x, s):
        # the constraint read the exponents again at every probe
        z = windowed_logs(x, s.transform)

        def constraint(r):
            return max(modular_trace(z, s.lam, s.orlicz, s.exponents, r))

        rho = solve_scale(constraint, 1e-11, 200)
        return rho, rho ** (s.exponents.inf / s.exponents.H)

    def test_matches_per_probe_constraint_bit_for_bit(self):
        orliczes = [P1, P2, OrliczFunction.x_log1p(), OrliczFunction.exp_minus_one()]
        rng = random.Random(41)
        for trial in range(60):
            m = rng.randint(8, 30)
            kind = ("constant", "formula", "list")[trial % 3]
            if kind == "constant":
                p = Exponents.constant(rng.uniform(0.5, 3.0))
            elif kind == "formula":
                p = Exponents.formula(rng.uniform(0.5, 3.0), rng.uniform(-0.4, 2.0))
            else:
                p = Exponents.from_list([rng.uniform(0.3, 3.0) for _ in range(m + 1)])
            s = spec(
                lam=rng.choice(["identity", "half", "sqrt"]),
                M=orliczes[trial % len(orliczes)],
                p=p,
                transform=("identity", "fhat")[trial // 3 % 2],
            )
            x = from_log([rng.uniform(-2.0, 2.0) for _ in range(m + 1)])
            res = paranorm(x, s)
            rho, g = self.per_probe_reference(x, s)
            assert (res.rho_star.hex(), res.g.hex()) == (rho.hex(), g.hex())

    @pytest.mark.parametrize("kind", ["formula", "list"])
    def test_exponents_read_once_per_solve(self, kind):
        m = 400
        rng = random.Random(42)
        if kind == "formula":
            p = CountingExponents("formula", c=1.0, d=1.0)
        else:
            p = CountingExponents("list", values=[rng.uniform(1, 2) for _ in range(m)])
        x = from_log([rng.uniform(-2.0, 2.0) for _ in range(m)])
        paranorm(x, spec(lam="half", M=OrliczFunction.x_log1p(), p=p))
        assert p.calls == m


class TestEstimateLimit:
    """The limit centre: the sign change of the final-window modular's derivative."""

    @staticmethod
    def final_window(z, s):
        return [z[k - 1] for k in s.lam.window(len(z))]

    @staticmethod
    def h(z, s, center):
        return modular_mean(z, s.lam, s.orlicz, s.exponents, s.rho, len(z), center)

    @staticmethod
    def tol(window):
        # the root finder's tolerance, 4 eps max(|lo|, |hi|) of the final window
        return 4.0 * sys.float_info.epsilon * max(abs(min(window)), abs(max(window)))

    @staticmethod
    def count_probes(monkeypatch):
        probes = []
        slope = summability._slope

        def counting(*args):
            probes.append(args[-1])
            return slope(*args)

        monkeypatch.setattr(summability, "_slope", counting)
        return probes

    @staticmethod
    def level_data(rng, m, level, spread):
        return [level + spread * rng.uniform(-1.0, 1.0) for _ in range(m)]

    @pytest.mark.parametrize("lam", ["identity", "half"])
    def test_power2_is_the_window_mean(self, lam):
        rng = random.Random(f"mean:{lam}")
        s = spec(lam=lam, M=P2, variant="limit")
        for _ in range(20):
            z = self.level_data(rng, rng.randint(40, 120), rng.uniform(-3, 3), 1.0)
            window = self.final_window(z, s)
            mean = sum(map(Fraction, window)) / len(window)
            est = _estimate_limit(z, s)
            assert abs(Fraction(est) - mean) <= self.tol(window)

    @pytest.mark.parametrize("lam", ["identity", "half"])
    def test_power1_reaches_h_at_the_window_median(self, lam):
        # h(c) = mean |z - c| / rho is minimal at the window median, a kink
        rng = random.Random(f"median:{lam}")
        s = spec(lam=lam, M=P1, variant="limit", rho=0.7)
        for _ in range(20):
            z = self.level_data(rng, rng.randint(40, 120), rng.uniform(-3, 3), 1.0)
            h_med = self.h(z, s, statistics.median(self.final_window(z, s)))
            h_est = self.h(z, s, _estimate_limit(z, s))
            assert abs(h_est - h_med) <= 1e-12 * h_med

    def test_large_center_small_spread(self):
        # a tolerance of sqrt(eps) |c| would stop about 0.07 from the mean here
        rng = random.Random(61)
        s = spec(lam="half", M=P2, variant="limit")
        for sign in (1.0, -1.0):
            z = self.level_data(rng, 80, sign * 5e6, 1e-3)
            window = self.final_window(z, s)
            mean = sum(map(Fraction, window)) / len(window)
            assert abs(Fraction(_estimate_limit(z, s)) - mean) <= Fraction(1, 10**6)

    def test_minimum_beyond_the_tail_quarter(self):
        # half windows: the final window is the last 20 terms, half near 10
        # and half near 0.  The last quarter sits near 0 with a tiny range,
        # yet h's minimum for power(2) is the window mean, near 5.
        rng = random.Random(17)
        s = spec(lam="half", M=P2, variant="limit")
        for _ in range(10):
            z = (self.level_data(rng, 20, 3.0, 1.0) + self.level_data(rng, 10, 10.0, 1e-3)
                 + self.level_data(rng, 10, 0.0, 1e-9))
            window = self.final_window(z, s)
            mean = sum(map(Fraction, window)) / len(window)
            assert abs(Fraction(_estimate_limit(z, s)) - mean) <= Fraction(1, 10**9)

    def test_tail_median_outside_the_final_window_is_clamped(self):
        # sqrt windows at m = 400: the final window is the last 20 terms,
        # the last quarter 100; its median -5 lies below every term of the
        # final window, whose modular has its minimum at the window mean
        rng = random.Random(18)
        s = spec(lam="sqrt", M=P2, variant="limit")
        z = self.level_data(rng, 380, -5.0, 0.1) + self.level_data(rng, 20, 1.0, 0.5)
        window = self.final_window(z, s)
        assert statistics.median(z[-100:]) < min(window)
        mean = sum(map(Fraction, window)) / len(window)
        assert abs(Fraction(_estimate_limit(z, s)) - mean) <= Fraction(1, 10**9)

    def test_constant_tail_is_its_own_centre(self, monkeypatch):
        probes = self.count_probes(monkeypatch)
        z = [5.0, -2.0, 0.5] + [1.25] * 37
        assert _estimate_limit(z, spec(lam="half", M=P2, variant="limit")) == 1.25
        assert probes == []

    @pytest.mark.parametrize("lam", ["identity", "half", "sqrt"])
    def test_never_worse_than_the_tail_median(self, lam):
        orliczes = [P1, P2, OrliczFunction.x_log1p(), OrliczFunction.exp_minus_one()]
        rng = random.Random(f"start:{lam}")
        for trial in range(40):
            s = spec(lam=lam, M=orliczes[trial % 4], variant="limit", rho=rng.uniform(0.5, 2))
            z = [rng.gauss(0.0, 1.0) * rng.choice((1e-9, 1.0, 1e3)) for _ in range(40)]
            center0 = statistics.median(z[-10:])
            assert self.h(z, s, _estimate_limit(z, s)) <= self.h(z, s, center0)

    def test_overflowing_span_keeps_the_tail_median(self):
        # the final window's range 1e308 - (-1e308) is inf: no bracket to
        # search, and its midpoint 0.5 lo + 0.5 hi is the tail median 0
        z = [0.0] * 30 + [1e308] * 5 + [-1e308] * 5
        assert _estimate_limit(z, spec(M=P2, variant="limit")) == 0.0

    @pytest.mark.parametrize("lam", ["identity", "half", "sqrt"])
    def test_power1_odd_window_ends_on_its_median_element(self, lam):
        rng = random.Random(f"odd:{lam}")
        for m in (41, 43, 45, 99, 101):
            s = spec(lam=lam, M=P1, variant="limit", rho=rng.uniform(0.5, 2))
            z = self.level_data(rng, m, rng.uniform(-3, 3), 1.0)
            window = self.final_window(z, s)
            if len(window) % 2 == 1:
                assert _estimate_limit(z, s) == statistics.median(window)

    def test_exp_minus_one_kink_is_placed_exactly(self):
        # h(c) = mean(e**|z - c| - 1) has a kink at every term, where its
        # derivative jumps by 2 per term.  30 terms at 0 against 7 each at
        # -1 and 1, whose pulls cancel: the minimiser is the kink at 0
        s = spec(lam="identity", M=OrliczFunction.exp_minus_one(), variant="limit")
        z = [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0] * 7 + [0.0, 0.0]
        assert _estimate_limit(z, s) == 0.0
        # off centre: the kink at 0.3 (2 for each of its 20 terms) holds
        # against the net pull 10 (e**0.7 - e**0.3) of the terms at 0 and 1
        z = [0.0, 0.3, 1.0, 0.3] * 10
        est = _estimate_limit(z, s)
        assert est == 0.3
        h = self.h(z, s, est)
        assert h < self.h(z, s, est + 1e-9) and h < self.h(z, s, est - 1e-9)

    def test_smooth_part_between_kinks(self):
        # exp_minus_one with the minimiser inside a gap: D is smooth there,
        # and the estimate is within the root finder's tolerance of it
        s = spec(lam="identity", M=OrliczFunction.exp_minus_one(), variant="limit")
        z = [0.0, 1.0, 2.0, 3.0] * 10
        est = _estimate_limit(z, s)
        assert 1.0 < est < 2.0 and abs(est - 1.5) <= self.tol(z)

    def test_exponents_below_one_are_raised_to_one(self):
        # p(k) = 0.5 + 0.5 / k < 1 beyond k = 1 makes h non-convex (for
        # power(1), a cusp at every term); the search runs on exponent 1
        # instead, so it ends where the constant exponent 1 does
        rng = random.Random(71)
        half = Exponents.formula(0.5, 0.5)
        for lam in ("identity", "half"):
            for trial in range(12):
                M = (P1, P2, OrliczFunction.x_log1p(), OrliczFunction.exp_minus_one())[trial % 4]
                below = spec(lam=lam, M=M, p=half, variant="limit")
                z = self.level_data(rng, 41, rng.uniform(-3, 3), 1.0)
                window = self.final_window(z, below)
                unit = spec(lam=lam, M=M, variant="limit")
                assert _estimate_limit(z, below) == _estimate_limit(z, unit)
                report = classify_membership(from_log(z), below)
                assert min(window) <= report.limit_estimate.log <= max(window)
                assert not any(map(math.isnan, report.window_values))

    @pytest.mark.parametrize("kind, p", [("power", 2.0), ("x_log1p", None),
                                         ("exp_minus_one", None), ("power", 1.0)])
    def test_subclass_keeps_its_kinds_derivative(self, kind, p):
        # HalvedOrlicz is M / 2: its derivative is half the kind's, so the
        # kind's D has the same sign and the estimate is the same
        rng = random.Random(73)
        z = self.level_data(rng, 60, 0.5, 1.0)
        for e in (E1, Exponents.constant(2.0)):
            halved = spec(lam="half", M=HalvedOrlicz(kind, p), p=e, variant="limit")
            plain = spec(lam="half", M=OrliczFunction(kind, p), p=e, variant="limit")
            assert _estimate_limit(z, halved) == _estimate_limit(z, plain)

    def test_near_kink_ends_on_the_term(self):
        # exponents 1 + 1/k just above 1 nearly put a kink in h at each
        # term; the root finder's bracket ends within its tolerance of the
        # term at the minimum, where h is lower by 1.5e-11 relative than
        # at the bracket's ends
        z = self.level_data(random.Random(10), 40, 1.0, 1e-6)
        s = spec(lam="half", M=P1, p=Exponents.formula(1.0, 1.0), variant="limit")
        window = self.final_window(z, s)
        est = _estimate_limit(z, s)
        assert est in window
        assert self.h(z, s, est) <= min(self.h(z, s, t) for t in window)

    @pytest.mark.parametrize("lam", ["identity", "half", "sqrt"])
    def test_no_term_beats_the_estimate(self, lam):
        orliczes = [P1, OrliczFunction.exp_minus_one(), P2, OrliczFunction.x_log1p()]
        rng = random.Random(f"near-kink:{lam}")
        for trial in range(40):
            s = spec(lam=lam, M=orliczes[trial % 4], variant="limit", rho=rng.uniform(0.5, 2),
                     p=Exponents.formula(1.0, 1.0) if trial % 3 else E1)
            level, spread = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-6.0, 1.0)
            z = self.level_data(rng, rng.randint(40, 90), level, spread)
            best = min(self.h(z, s, t) for t in set(self.final_window(z, s)))
            assert self.h(z, s, _estimate_limit(z, s)) <= best * (1.0 + 1e-12)

    def test_derivative_overflowing_on_both_sides(self):
        # exp_minus_one over a window spread beyond 2 * 710 rho: e**u leaves
        # double range on both sides of every centre, and so does h
        s = spec(lam="identity", M=OrliczFunction.exp_minus_one(), variant="limit")
        z = [-1000.0, 0.0, 1000.0, 5.0] * 10
        est = _estimate_limit(z, s)
        assert -1000.0 <= est <= 1000.0
        report = classify_membership(from_log(z), s)
        assert report.limit_estimate.log == est
        assert not any(map(math.isnan, report.window_values))

    @pytest.mark.parametrize("M", [P2, OrliczFunction.x_log1p(), OrliczFunction.exp_minus_one()],
                             ids=lambda M: M.kind)
    def test_probe_count_on_verify_members(self, M, monkeypatch):
        # a golden section took 84 probes per estimate and Brent's minimiser
        # about 8.5; the root finder takes 3 to 5
        probes = self.count_probes(monkeypatch)
        s = spec(lam="half", M=M, variant="limit", transform="fhat")
        counts = []
        for trial in range(100):
            x = generate_member(s, 1, 56, "consistency_member", trial).sequence
            _estimate_limit(windowed_logs(x, "fhat"), s)
            counts.append(len(probes))
            del probes[:]
        assert max(counts) <= 6
        assert statistics.mean(counts) <= 5


class TestStatisticsFree:
    """The median and tail slope that replaced ``statistics``, bit for bit."""

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [5.0, 1.0, 4.0], [1.0, 2.0, 2.0, 2.0],
        [0.1, 0.2, 0.3, 0.4], [math.inf, 1.0], [math.inf, math.inf, 2.0, 3.0],
        [-math.inf, math.inf], [1e308, 1e308], [-0.0, 0.0, -0.0],
    ])
    def test_median_is_statistics_median(self, values):
        for vs in (values, values[::-1]):
            assert repr(summability._median(vs)) == repr(statistics.median(vs))

    def test_median_on_random_lists(self):
        rng = random.Random(83)
        for n in range(1, 60):
            vs = [rng.choice((rng.gauss(0.0, 1.0), 0.5, math.inf)) for _ in range(n)]
            assert repr(summability._median(vs)) == repr(statistics.median(vs))

    @staticmethod
    def fsum_slope(values):
        # least squares of log S on log n over the trailing half, written out
        m = len(values)
        pts = [(math.log(n), math.log(values[n - 1])) for n in range(max(1, m // 2), m + 1)
               if 0.0 < values[n - 1] < math.inf]
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in pts)
        sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
        return sxy / sxx

    def test_tail_slope_is_the_fsum_formula(self):
        rng = random.Random(89)
        for m in range(12, 400, 7):
            values = [rng.uniform(0.1, 10.0) * n ** rng.uniform(-2.0, 2.0)
                      for n in range(1, m + 1)]
            values[rng.randrange(m)] = math.inf  # skipped, as is a zero
            values[rng.randrange(m)] = 0.0
            slope = summability._tail_slope(values)
            assert slope == self.fsum_slope(values)
            # 3.10 squares with ``** 2.0`` (C pow, which rounds d * d
            # differently about once in a thousand); 3.12+ uses math.sumprod
            if sys.version_info[:2] == (3, 11):
                pts = [(math.log(n), math.log(v)) for n, v in enumerate(values, 1)
                       if n >= max(1, m // 2) and 0.0 < v < math.inf]
                assert slope == statistics.linear_regression(*zip(*pts)).slope

    def test_tail_slope_of_too_few_points_is_flat(self):
        assert summability._tail_slope([1.0, 2.0, 0.0, math.inf]) == 0.0
