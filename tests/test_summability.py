"""Windows, windowed means, modulars, membership verdicts, paranorm."""

import math
import os
import random
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
    Exponents,
    GeoScalar,
    LambdaSequence,
    OrliczFunction,
    ScaleSolverError,
    SpaceSpec,
    classify_membership,
    from_log,
    kernel_log_sequence,
    modular_window,
    paranorm,
    stat_density,
    vp_mean,
    window,
    window_trace,
    windowed_logs,
)
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
