"""Member generation and the randomised inequality/inclusion checks."""

import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from geoseq import (
    BOUNDED,
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    DegenerateOrliczError,
    Exponents,
    GeoScalar,
    OrliczFunction,
    TrialConfig,
    check_delta2_inclusion,
    check_exponent_inclusion,
    check_linear_combination,
    check_solidity,
    classify_membership,
    emit_report,
    from_log,
    generate_member,
    run_suite,
    window_trace,
    windowed_logs,
)
from geoseq.harness import _default_spec
from geoseq.orlicz import small_argument_threshold


def base_spec(**over):
    return replace(_default_spec(), **over)


class TestGenerateMember:
    @pytest.mark.parametrize("variant", ["zero", "limit", "bounded"])
    @pytest.mark.parametrize("transform", ["fhat", "identity"])
    def test_round_trip_precision(self, variant, transform):
        s = base_spec(variant=variant, transform=transform)
        for trial in range(10):
            sample = generate_member(s, 42, 56, "rt", trial)
            realised = windowed_logs(sample.sequence, transform)
            scale = max(1.0, max(abs(t) for t in sample.target))
            worst = max(abs(a - b) for a, b in zip(realised, sample.target))
            assert worst <= 1e-10 * scale

    def test_round_trip_precision_long(self):
        # the contractive reconstruction stays stable well beyond the
        # lengths the checks use
        s = base_spec()
        sample = generate_member(s, 1, 300, "long", 0)
        realised = windowed_logs(sample.sequence, "fhat")
        assert max(abs(a - b) for a, b in zip(realised, sample.target)) <= 1e-10

    def test_zero_member_classifies_converging(self):
        s = base_spec()
        for trial in range(10):
            sample = generate_member(s, 7, 56, "zc", trial)
            assert classify_membership(sample.sequence, s).verdict == CONVERGING

    def test_limit_member_carries_its_level(self):
        s = base_spec(variant="limit")
        for trial in range(10):
            sample = generate_member(s, 7, 56, "lc", trial)
            rep = classify_membership(sample.sequence, s)
            assert rep.verdict == CONVERGING
            assert abs(rep.limit_estimate.log - sample.ell.log) <= 1e-3

    def test_bounded_member_classifies_bounded(self):
        s = base_spec(variant="bounded")
        for trial in range(10):
            sample = generate_member(s, 7, 56, "bc", trial)
            assert classify_membership(sample.sequence, s).verdict == BOUNDED

    def test_determinism(self):
        s = base_spec()
        a = generate_member(s, 5, 40, "d", 3)
        b = generate_member(s, 5, 40, "d", 3)
        assert a.sequence.logs == b.sequence.logs
        assert a.target == b.target


class TestLinearCombination:
    def test_zero_scalars_trivial(self):
        s = base_spec()
        x = from_log([1.0, -2.0, 0.5] * 8)
        out = check_linear_combination(x, x, 0.0, 0.0, s, 1.0, 1.0)
        assert out.passed
        assert out.worst_violation == 0.0

    def test_single_argument_convexity_case(self):
        s = base_spec()
        rng = random.Random(51)
        x = from_log([rng.uniform(-4, 4) for _ in range(30)])
        y = from_log([0.0] * 30)
        out = check_linear_combination(x, y, 1.0, 0.0, s, 1.0, 1.0)
        assert out.passed

    @pytest.mark.parametrize("p", [
        Exponents.constant(1.0),
        Exponents.constant(1.5),
        Exponents.formula(1.0, 1.0),
    ])
    def test_random_instances(self, p):
        s = base_spec(exponents=p)
        rng = random.Random(52)
        for _ in range(30):
            x = from_log([rng.uniform(-5, 5) for _ in range(40)])
            y = from_log([rng.uniform(-5, 5) for _ in range(40)])
            out = check_linear_combination(
                x, y, rng.uniform(-3, 3), rng.uniform(-3, 3), s,
                rng.uniform(0.5, 2), rng.uniform(0.5, 2),
            )
            assert out.passed, out.detail

    def test_scale_preconditions(self):
        s = base_spec()
        x = from_log([0.0] * 20)
        with pytest.raises(ValueError):
            check_linear_combination(x, x, 1.0, 1.0, s, 0.0, 1.0)


class TestSolidity:
    def test_zero_scalars(self):
        s = base_spec(transform="identity")
        y = from_log([0.6, -1.0, 2.0] * 10)
        alphas = [GeoScalar(1.0)] * 30
        out = check_solidity(y, alphas, s)
        assert out.passed

    def test_identity_scalars_give_equality(self):
        s = base_spec(transform="identity")
        y = from_log([0.6, -1.0, 2.0] * 10)
        alphas = [GeoScalar.from_log(1.0)] * 30
        out = check_solidity(y, alphas, s)
        assert out.passed
        assert out.worst_violation == 0.0  # exact equality window by window

    def test_random_scalars(self):
        s = base_spec(transform="identity")
        rng = random.Random(53)
        for _ in range(30):
            y = from_log([rng.uniform(-3, 3) for _ in range(30)])
            alphas = [GeoScalar.from_log(rng.uniform(-1, 1)) for _ in range(30)]
            assert check_solidity(y, alphas, s).passed

    def test_step_space_masks(self):
        s = base_spec(transform="identity")
        rng = random.Random(54)
        y = from_log([rng.uniform(-3, 3) for _ in range(30)])
        alphas = [GeoScalar.from_log(float(rng.randint(0, 1))) for _ in range(30)]
        assert check_solidity(y, alphas, s).passed

    def test_oversized_scalar_rejected(self):
        s = base_spec(transform="identity")
        y = from_log([0.0] * 4)
        alphas = [GeoScalar.from_log(1.5)] + [GeoScalar(1.0)] * 3
        with pytest.raises(ValueError, match="magnitude exceeds e"):
            check_solidity(y, alphas, s)


class TestDelta2Inclusion:
    def test_all_ones_trivial(self):
        s = base_spec(variant="limit")
        x = from_log([0.0] * 56)
        out = check_delta2_inclusion(
            x, s.orlicz, s, delta=0.3, epsilon=0.1,
            ell=GeoScalar(1.0),
        )
        assert out.passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_power_families_on_members(self, p):
        M = OrliczFunction.power(p)
        s = base_spec(orlicz=M, variant="limit")
        eps = 0.1
        delta = small_argument_threshold(M, eps)
        for trial in range(20):
            sample = generate_member(s, 11, 56, "d2", trial)
            out = check_delta2_inclusion(
                x=sample.sequence, orlicz=M, spec=s, delta=delta,
                epsilon=eps, ell=sample.ell,
            )
            assert out.passed, out.detail

    def test_refuses_unbounded_family(self):
        s = base_spec(variant="limit")
        x = from_log([0.0] * 56)
        out = check_delta2_inclusion(
            x, OrliczFunction.exp_minus_one(), s, delta=0.05, epsilon=0.1,
        )
        assert not out.passed
        assert "refused" in out.detail

    def test_delta_consistency_enforced(self):
        s = base_spec(variant="limit")
        x = from_log([0.0] * 56)
        with pytest.raises(ValueError, match="delta"):
            check_delta2_inclusion(x, s.orlicz, s, delta=0.9, epsilon=1e-6)


class TestExponentInclusion:
    def test_equal_exponents_trivial(self):
        s = base_spec()
        p = Exponents.constant(1.5)
        sample = generate_member(base_spec(exponents=p), 13, 56, "pq", 0)
        out = check_exponent_inclusion(sample.sequence, p, p, s)
        assert out.passed

    def test_terms_below_one_direct(self):
        # all t < 1: every term satisfies t**mu_k <= t**mu pointwise
        p = Exponents.constant(1.0)
        q = Exponents.constant(2.0)
        sample = generate_member(base_spec(exponents=q), 19, 56, "small", 0)
        s = base_spec()
        z = windowed_logs(sample.sequence, "fhat")
        mu = 0.5
        for k in range(1, len(z) + 1):
            t = s.orlicz.eval(abs(z[k - 1]) / s.rho) ** q.at(k)
            if t < 1.0:
                assert t ** (p.at(k) / q.at(k)) <= t ** mu + 1e-15
        out = check_exponent_inclusion(sample.sequence, p, q, s)
        assert out.passed

    def test_doubled_and_shifted_profiles(self):
        s = base_spec()
        profiles = [
            (Exponents.constant(1.0), Exponents.constant(2.0)),
            (Exponents.constant(1.0), Exponents.formula(1.0, 1.0)),
            (Exponents.constant(1.5), Exponents.constant(3.0)),
        ]
        for p, q in profiles:
            for trial in range(15):
                sample = generate_member(base_spec(exponents=q), 17, 56, "pq2", trial)
                out = check_exponent_inclusion(sample.sequence, p, q, s)
                assert out.passed, out.detail

    def test_overflowing_term_saturates_instead_of_raising(self):
        # M(1e100) = 1e200 is finite, its square is not: the term saturates
        # to inf, as it does in the window trace, instead of raising
        s = base_spec(transform="identity")
        x = from_log([1e100] + [0.5] * 59)
        q = Exponents.constant(2.0)
        assert window_trace(x, replace(s, exponents=q))[0] == math.inf
        out = check_exponent_inclusion(x, Exponents.constant(1.0), q, s)
        assert out.name == "exponent_inclusion"
        assert out.passed, out.detail  # inf <= inf on the one window holding it

    def test_precondition_rejected(self):
        s = base_spec()
        x = from_log([0.0] * 20)
        with pytest.raises(ValueError, match="p <= q"):
            check_exponent_inclusion(
                x, Exponents.constant(2.0), Exponents.constant(1.0), s
            )


def fake_classifier(monkeypatch, verdicts):
    """Replace the harness's classifier; call i returns verdicts[i]."""
    calls = []

    def fake(x, spec, tols):
        calls.append(spec)
        return SimpleNamespace(verdict=verdicts[len(calls) - 1])

    monkeypatch.setattr("geoseq.harness.classify_membership", fake)
    return calls


class TestEndToEnd:
    """The shared rule: converging in the stronger space only fails a passed check."""

    CASES = [
        (CONVERGING, INCONCLUSIVE, False),
        (CONVERGING, DIVERGING, False),
        (CONVERGING, CONVERGING, True),
        (INCONCLUSIVE, DIVERGING, True),
    ]

    @pytest.mark.parametrize("strong, weak, passed", CASES)
    def test_delta2_detail(self, monkeypatch, strong, weak, passed):
        M = OrliczFunction.power(2.0)
        s = base_spec(variant="limit")
        calls = fake_classifier(monkeypatch, [strong, weak])
        out = check_delta2_inclusion(
            from_log([0.0] * 56), M, s, delta=0.3, epsilon=0.1, ell=GeoScalar(1.0)
        )
        assert [c.orlicz for c in calls] == [OrliczFunction.power(1.0), M]
        assert out.passed is passed
        if not passed:
            assert out.detail == (
                f"end-to-end: raw verdict {strong} but M-modular verdict {weak}"
            )
            assert out.name == "delta2_inclusion"
            assert out.worst_violation == 0.0

    @pytest.mark.parametrize("strong, weak, passed", CASES)
    def test_exponent_detail(self, monkeypatch, strong, weak, passed):
        p, q = Exponents.constant(1.0), Exponents.constant(2.0)
        calls = fake_classifier(monkeypatch, [strong, weak])
        out = check_exponent_inclusion(from_log([0.0] * 56), p, q, base_spec())
        assert [c.exponents for c in calls] == [q, p]
        assert out.passed is passed
        if not passed:
            assert out.detail == f"end-to-end: q-verdict {strong} but p-verdict {weak}"
            assert out.name == "exponent_inclusion"

    def test_failed_window_scan_skips_the_verdicts(self, monkeypatch):
        # a negative slack fails the first window of any instance
        calls = fake_classifier(monkeypatch, [])
        s = base_spec(variant="limit")
        out = check_delta2_inclusion(
            from_log([5.0 * (-1) ** k for k in range(56)]), s.orlicz, s,
            delta=small_argument_threshold(s.orlicz, 0.1), epsilon=0.1, slack=-1.0,
        )
        assert not out.passed and out.detail.startswith("window 1: ")
        assert calls == []


class TestRunSuite:
    def test_default_seed_passes(self):
        rep = run_suite(TrialConfig(seed=42, trials=25, length=56))
        assert rep.all_passed
        names = [c.name for c in rep.checks]
        assert names == [
            "linear_combination",
            "solidity",
            "delta2_inclusion",
            "exponent_inclusion",
            "density_bound",
            "stat_consistency",
        ]

    def test_zero_trials_empty_report(self):
        rep = run_suite(TrialConfig(seed=1, trials=0, length=56))
        assert rep.all_passed
        assert rep.rows == []
        assert all(c.trials == 0 for c in rep.checks)

    def test_unbounded_orlicz_skips_doubling_check(self):
        spec = base_spec(orlicz=OrliczFunction.exp_minus_one())
        rep = run_suite(TrialConfig(seed=1, trials=5, length=56, spec=spec))
        d2 = next(c for c in rep.checks if c.name == "delta2_inclusion")
        assert d2.skipped is not None
        assert d2.trials == 0
        assert rep.all_passed  # skipped-with-reason is not a failure

    @pytest.mark.parametrize("cause", ["unsatisfied", "error"])
    def test_doubling_skip_reasons(self, monkeypatch, cause):
        spec = base_spec()
        if cause == "unsatisfied":
            spec = base_spec(orlicz=OrliczFunction.exp_minus_one())
            reason = "skipped: the configured Orlicz function fails the doubling condition"
        else:
            def failing(M):
                raise DegenerateOrliczError("no finite doubling ratios on the grid")

            monkeypatch.setattr("geoseq.harness.delta2_constant", failing)
            reason = "skipped: no finite doubling ratios on the grid"
        rep = run_suite(TrialConfig(seed=1, trials=2, length=56, spec=spec))
        assert [c.name for c in rep.checks][2] == "delta2_inclusion"
        d2 = rep.checks[2]
        assert d2.skipped == reason
        assert (d2.trials, d2.failures, d2.worst_violation, d2.first_failure) == (
            0, 0, 0.0, None
        )
        assert not any(row[0] == "delta2_inclusion" for row in rep.rows)

    def test_small_argument_threshold_once_per_run(self, monkeypatch):
        calls = []

        def counting(M, eps):
            calls.append(eps)
            return small_argument_threshold(M, eps)

        monkeypatch.setattr("geoseq.harness.small_argument_threshold", counting)
        rep = run_suite(TrialConfig(seed=1, trials=6, length=56))
        assert calls == [0.1]
        d2 = next(c for c in rep.checks if c.name == "delta2_inclusion")
        assert (d2.trials, d2.failures, d2.skipped) == (6, 0, None)

    def test_missing_small_argument_threshold_fails_every_trial(self):
        # doubling holds on the grid, but M(t) > 0.1 down to t ~ 1e-24
        M = OrliczFunction.table([[0, 0], [1e-30, 1.0], [2e-30, 2.5]])
        rep = run_suite(TrialConfig(seed=3, trials=4, length=56, spec=base_spec(orlicz=M)))
        d2 = next(c for c in rep.checks if c.name == "delta2_inclusion")
        assert (d2.trials, d2.failures, d2.skipped) == (4, 4, None)
        assert d2.first_failure == "trial 0: no positive small-argument threshold at eps=0.1"
        rows = [row for row in rep.rows if row[0] == "delta2_inclusion"]
        assert rows == [("delta2_inclusion", t, False, math.inf) for t in range(4)]

    def test_deterministic_reports(self):
        a = run_suite(TrialConfig(seed=42, trials=10, length=48))
        b = run_suite(TrialConfig(seed=42, trials=10, length=48))
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "csv") == emit_report(b, "csv")

    def test_seed_changes_rows(self):
        a = run_suite(TrialConfig(seed=1, trials=6, length=40))
        b = run_suite(TrialConfig(seed=2, trials=6, length=40))
        assert emit_report(a, "json") != emit_report(b, "json")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=-1)
        with pytest.raises(ValueError):
            TrialConfig(length=4)
        with pytest.raises(ValueError):
            TrialConfig(slack=0.0)
