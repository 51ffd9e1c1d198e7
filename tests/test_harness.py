"""Member generation and the randomised inequality/inclusion checks."""

import math
import os
import random
import threading
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import pytest

from geoseq import (
    BOUNDED,
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    DegenerateOrliczError,
    Exponents,
    GeoScalar,
    LambdaSequence,
    OrliczFunction,
    Tolerances,
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
from geoseq import harness, membership
from geoseq.fibonacci import fib_ratio
from geoseq.harness import (
    CheckOutcome,
    _bits,
    _default_spec,
    _generate,
    _outcomes,
    _ParentGone,
    _run_trials,
    _scan_windows,
    _solidity,
    _worker_count,
)
from geoseq.orlicz_checks import delta2_constant, small_argument_threshold
from geoseq.statconv import modular_density_bound, stat_converges, stat_density
from geoseq.summability import modular_trace


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

    @staticmethod
    def reference_member(spec, seed, length, check, trial):
        """generate_member as it drew with random.Random's own calls."""
        rng = random.Random(f"{seed}:{check}:{trial}")
        m = length if spec.transform == "identity" else length - 1
        ell = None
        amp = rng.uniform(0.5, 1.5)
        decay = rng.uniform(0.35, 0.55)
        if spec.variant == "bounded":
            target = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        else:
            level = 0.0
            if spec.variant == "limit":
                level = rng.uniform(-2.0, 2.0)
                ell = GeoScalar.from_log(level)
            target = [level + rng.choice((-1.0, 1.0)) * amp * decay ** k
                      for k in range(1, m + 1)]
        anchor = rng.uniform(-0.5, 0.5)
        if spec.transform == "identity":
            u = list(target)
        else:
            u = [0.0] * m + [anchor]
            for k in range(m, 0, -1):
                r_k = fib_ratio(k)
                u[k - 1] = r_k * (r_k * u[k] - target[k - 1])
        return from_log(u), tuple(target), ell

    def test_draws_equal_random_random_calls(self):
        # the inlined uniforms, sign draws and ratio table, over 1,000 seeds
        specs = [base_spec(variant=v, transform=t)
                 for v in ("zero", "limit", "bounded") for t in ("fhat", "identity")]
        for seed in range(1000):
            s = specs[seed % len(specs)]
            sample = generate_member(s, seed, 56 + seed % 7, "draws", seed % 5)
            want = self.reference_member(s, seed, 56 + seed % 7, "draws", seed % 5)
            assert (sample.sequence, sample.target, sample.ell) == want

    @pytest.mark.parametrize("values, draw", [
        ((-1.0, 1.0), lambda rng: rng.choice((-1.0, 1.0))),
        ((0.0, 1.0), lambda rng: float(rng.randint(0, 1))),
    ], ids=["choice", "randint"])
    def test_bits_equal_choice_and_randint(self, values, draw):
        for seed in range(1000):
            ours, theirs = random.Random(seed), random.Random(seed)
            n = 1 + seed % 90
            assert [values[b] for b in _bits(ours, n)] == [draw(theirs) for _ in range(n)]
            assert ours.random() == theirs.random()  # not one draw more or less

    # every uniform(a, b) run_suite writes out, with b - a as it is written
    UNIFORMS = [
        (0.5, 1.5, 1.0), (0.35, 0.55, 0.55 - 0.35), (-3.0, 3.0, 6.0), (-2.0, 2.0, 4.0),
        (-0.5, 0.5, 1.0), (-5.0, 5.0, 10.0), (0.5, 2.0, 1.5), (-1.0, 1.0, 2.0),
        (0.1, 2.0, 2.0 - 0.1),
    ]

    @pytest.mark.parametrize("a, b, width", UNIFORMS)
    def test_inlined_uniform_equals_random_uniform(self, a, b, width):
        for seed in range(1000):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert a + width * ours.random() == theirs.uniform(a, b)

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

    @pytest.mark.parametrize("p_value", [0.0005, 0.002, 1e-6])
    def test_tiny_exponent_ratio_needs_no_floor_on_mu(self, p_value):
        # t = M(1e-150) = 1e-300 on every term, mu_k = p: t**p <= t + t**mu
        # holds only for mu <= p, so a floor of mu at 1e-3 failed p < 1e-3
        s = base_spec(lam=LambdaSequence.identity(), transform="identity")
        x = from_log([1e-150] * 12)
        out = check_exponent_inclusion(
            x, Exponents.constant(p_value), Exponents.constant(1.0), s
        )
        assert out.passed, out.detail

    def test_precondition_rejected(self):
        s = base_spec()
        x = from_log([0.0] * 20)
        with pytest.raises(ValueError, match="p <= q"):
            check_exponent_inclusion(
                x, Exponents.constant(2.0), Exponents.constant(1.0), s
            )


def fake_classifier(monkeypatch, verdicts):
    """Replace the harness's view-level verdict; call i returns verdicts[i]."""
    calls = []

    def fake(z, spec, tols, values=None):
        calls.append(spec)
        return verdicts[len(calls) - 1], 0.0, [], None

    monkeypatch.setattr("geoseq.harness._verdict", fake)
    return calls


class TestEndToEnd:
    """The shared rule: converging in the stronger space only fails a passed check.

    The weaker space's verdict is asked for only after the stronger one
    converges; otherwise it cannot fail the check.
    """

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
        asked = [OrliczFunction.power(1.0), M] if strong == CONVERGING else [
            OrliczFunction.power(1.0)
        ]
        assert [c.orlicz for c in calls] == asked
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
        assert [c.exponents for c in calls] == ([q, p] if strong == CONVERGING else [q])
        assert out.passed is passed
        if not passed:
            assert out.detail == f"end-to-end: q-verdict {strong} but p-verdict {weak}"
            assert out.name == "exponent_inclusion"

    @pytest.mark.parametrize("variant", ["zero", "bounded", "limit"])
    def test_q_verdict_reads_the_trace_the_check_holds(self, monkeypatch, variant):
        # the exponent check's t_means is the q-space trace around 0.0; the
        # limit variant centres its trace elsewhere and computes it
        held = []
        real = membership._verdict

        def verdict(z, spec, tols, values=None):
            if spec.exponents != Exponents.constant(1.0):  # the q-verdict
                held.append(values)
                if values is not None:
                    assert values == modular_trace(
                        z, spec.lam, spec.orlicz, spec.exponents, spec.rho
                    )
            return real(z, spec, tols, values)

        monkeypatch.setattr("geoseq.harness._verdict", verdict)
        s = base_spec(variant=variant)
        for trial in range(10):
            for q in (Exponents.constant(2.0), Exponents.formula(1.0, 1.0)):
                x = generate_member(replace(s, exponents=q), 3, 56, "held", trial).sequence
                check_exponent_inclusion(x, Exponents.constant(1.0), q, s)
        assert held
        assert all(v is None for v in held) == (variant == "limit")
        assert all(v is not None for v in held) == (variant != "limit")

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

    def test_identity_transform_passes_consistency(self):
        # the statistical checks window the fhat view under either transform
        spec = base_spec(transform="identity")
        rep = run_suite(TrialConfig(seed=42, trials=10, length=56, spec=spec))
        check = rep.checks[-1]
        assert (check.name, check.trials, check.failures) == ("stat_consistency", 10, 0)
        assert rep.all_passed

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
        # doubling holds on the grid, but M(t) > 0.1 at every positive double
        M = OrliczFunction.table([[0, 0], [5e-324, 1.0], [1.0, 2.0], [2.0, 4.0]])
        rep = run_suite(TrialConfig(seed=3, trials=4, length=56, spec=base_spec(orlicz=M)))
        d2 = next(c for c in rep.checks if c.name == "delta2_inclusion")
        assert (d2.trials, d2.failures, d2.skipped) == (4, 4, None)
        assert d2.first_failure == "trial 0: no positive small-argument threshold at eps=0.1"
        rows = [row for row in rep.rows if row[0] == "delta2_inclusion"]
        assert rows == [("delta2_inclusion", t, False, math.inf) for t in range(4)]

    def test_threshold_below_the_first_bisection_runs_the_check(self):
        # M(t) = 1e30 t near 0: the threshold at eps = 0.1 is 1e-31, below
        # every point of the 80 bisections from 0.999
        M = OrliczFunction.table([[0, 0], [1e-30, 1.0], [2e-30, 2.5]])
        delta = small_argument_threshold(M, 0.1)
        assert delta == pytest.approx(1e-31, rel=1e-12) and M.eval(delta) <= 0.1
        rep = run_suite(TrialConfig(seed=3, trials=4, length=56, spec=base_spec(orlicz=M)))
        d2 = next(c for c in rep.checks if c.name == "delta2_inclusion")
        assert (d2.trials, d2.skipped) == (4, None)
        rows = [row for row in rep.rows if row[0] == "delta2_inclusion"]
        assert [row[3] for row in rows] == [0.0] * 4  # every window scan ran and held
        # the window bounds hold; M's scale makes the M-modular verdict inconclusive
        assert d2.first_failure == (
            "trial 0: end-to-end: raw verdict converging but M-modular verdict inconclusive"
        )

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
        # a count that is not an int is an input error, not a failed trial
        for what, bad in [("trials", 2.0), ("length", 56.0), ("trials", True),
                          ("length", True)]:
            with pytest.raises(ValueError, match=f"{what} must be an integer, got {bad!r}"):
                TrialConfig(**{what: bad})

    def test_each_stream_belongs_to_one_check(self, monkeypatch):
        # the documented substream rule: every named stream is drawn by the
        # trials of one _CHECKS entry only
        _fake_cpus(monkeypatch, 1)  # serial: every draw is seen here
        running, drawn = [], {}
        real_rng = harness._rng

        def rng(seed, check, trial):
            drawn.setdefault(check, set()).add(running[-1])
            return real_rng(seed, check, trial)

        def tagged(entry):
            def trial(suite, t):
                running.append(entry.name)
                return entry.trial(suite, t)
            return entry._replace(trial=trial)

        monkeypatch.setattr(harness, "_rng", rng)
        monkeypatch.setattr(harness, "_CHECKS", tuple(map(tagged, harness._CHECKS)))
        rep = run_suite(TrialConfig(seed=1, trials=2, length=56))
        assert rep.all_passed and all(c.skipped is None for c in rep.checks)
        assert drawn == {
            "linear_combination": {"linear_combination"},
            "solidity": {"solidity"},
            "solidity_member": {"solidity"},
            "delta2_member": {"delta2_inclusion"},
            "exponent_member": {"exponent_inclusion"},
            "density_bound": {"density_bound"},
            "consistency_member": {"stat_consistency"},
        }

    def test_readme_claims_table_lists_every_check(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Verification suite\n", 1)[1].split("\n## ", 1)[0]
        lines = section.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        rows = list(takewhile(lambda line: line.startswith("|"), lines[start:]))  # one table
        assert rows[0].split("|")[1].strip().lower() == "check"
        checks = [row.split("|")[1].strip().strip("`") for row in rows[2:]]
        assert checks == [entry.name for entry in harness._CHECKS]

    def test_window_slack_is_fixed(self):
        assert TrialConfig().describe()["slack"] == 1e-12
        with pytest.raises(TypeError):
            TrialConfig(slack=1.0)

    def test_custom_lambda_must_cover_the_length(self):
        lam = LambdaSequence.custom([1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        TrialConfig(trials=0, length=10, spec=base_spec(lam=lam))
        with pytest.raises(ValueError, match="custom lambda of length 10 is shorter"):
            TrialConfig(trials=0, length=11, spec=base_spec(lam=lam))

    def test_exponent_list_must_cover_the_length(self):
        # solidity windows the configured exponents over the identity view
        p = Exponents.from_list([1.0, 1.5, 2.0] * 4)
        config = TrialConfig(trials=3, length=12, spec=base_spec(exponents=p))
        report = run_suite(config)
        assert all("beyond list" not in (c.first_failure or "") for c in report.checks)
        message = "exponent list of length 12 is shorter than the suite length 13"
        with pytest.raises(ValueError, match=message):
            TrialConfig(trials=3, length=13, spec=base_spec(exponents=p))

    @pytest.mark.parametrize("transform, length, windows", [
        ("fhat", 40, 39), ("fhat", 8, 7), ("identity", 40, 39),
    ])
    def test_short_truncation_skips_consistency(self, transform, length, windows):
        spec = base_spec(transform=transform)
        rep = run_suite(TrialConfig(seed=1, trials=2, length=length, spec=spec))
        check = rep.checks[-1]
        assert check.name == "stat_consistency"
        assert check.skipped == (
            f"skipped: truncation too short: {windows} windows < 4 * window_count = 40"
        )
        assert (check.trials, check.failures, check.first_failure) == (0, 0, None)
        assert not any(row[0] == "stat_consistency" for row in rep.rows)

    @pytest.mark.parametrize("transform, length", [("fhat", 41), ("identity", 41)])
    def test_forty_windows_run_consistency(self, transform, length):
        spec = base_spec(transform=transform)
        rep = run_suite(TrialConfig(seed=1, trials=2, length=length, spec=spec))
        check = rep.checks[-1]
        assert (check.name, check.trials, check.skipped) == ("stat_consistency", 2, None)


def _scan_reference(name, pairs, slack, upper=True):
    """The window scan as one loop: the first failing window, the worst
    violation up to it (above 0.0, NaN ignored)."""
    worst = 0.0
    for n, (l, r) in enumerate(pairs, 1):
        violation = l - r if upper else r - l
        if violation > worst:
            worst = violation
        if violation > slack * max(1.0, abs(r)):
            detail = f"window {n}: {l} {'>' if upper else '<'} {r}"
            return CheckOutcome(name, False, worst, detail)
    return CheckOutcome(name, True, worst)


class TestScanWindows:
    """The column scan equals the one-loop scan: first failing window, worst
    violation up to it, ties and NaN as the loop treats them."""

    @pytest.mark.parametrize("upper", [True, False])
    def test_equals_the_loop(self, upper):
        rng = random.Random(f"scan:{upper}")
        pool = [0.0, -0.0, 1.0, -1.0, 1e-12, 2.5, 1e300, math.inf, -math.inf, math.nan]
        for trial in range(3000):
            m = rng.randint(0, 12)
            lhs = [rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-3, 3)
                   for _ in range(m)]
            rhs = [rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-3, 3)
                   for _ in range(m)]
            slack = rng.choice([1e-12, 0.5, 10.0, -1.0])
            got = _scan_windows("scan", lhs, rhs, slack, upper)
            want = _scan_reference("scan", zip(lhs, rhs), slack, upper)
            assert (got.passed, got.detail) == (want.passed, want.detail)
            assert repr(got.worst_violation) == repr(want.worst_violation)

    def test_worst_violation_stops_at_the_first_failing_window(self):
        out = _scan_windows("scan", [0.0, 2.0, 9.0], [0.0, 1.0, 1.0], 0.5)
        assert (out.passed, out.worst_violation, out.detail) == (
            False, 1.0, "window 2: 2.0 > 1.0"
        )
        out = _scan_windows("scan", [1.0, 0.0, -0.5], [1.0, 0.25, 0.0], 1.0, upper=False)
        assert (out.passed, out.worst_violation, out.detail) == (True, 0.5, None)


def rebuild_suite(config):
    """run_suite's checks, check by check and trial by trial, from the public
    per-member calls: {check: [(passed, worst_violation, detail)]}.

    The density bound is asked window by window (``modular_density_bound``)
    and the consistency check classifies and counts from the sequence, as
    before run_suite shared one view per member.
    """
    spec, N, slack, tols, seed = (
        config.spec, config.length, config.slack, config.tolerances, config.seed
    )
    profiles = [
        Exponents.constant(1.0), Exponents.constant(1.5), Exponents.formula(1.0, 1.0)
    ]
    limit_spec = replace(spec, variant="limit")
    density_spec = replace(spec, exponents=Exponents.constant(1.0), variant="limit",
                           transform="fhat")

    def linear(trial):
        rng = random.Random(f"{seed}:linear_combination:{trial}")
        x = from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        y = from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        rho1, rho2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        p = replace(spec, exponents=profiles[trial % 3])
        return check_linear_combination(x, y, a, b, p, rho1, rho2, slack)

    def solidity(trial):
        rng = random.Random(f"{seed}:solidity:{trial}")
        member = replace(spec, transform="identity", variant="zero")
        sample = generate_member(member, seed, N, "solidity_member", trial)
        draw = (lambda: rng.uniform(-1.0, 1.0)) if trial % 2 == 0 else (
            lambda: float(rng.randint(0, 1)))
        alphas = [GeoScalar.from_log(draw()) for _ in range(len(sample.sequence))]
        return check_solidity(sample.sequence, alphas, replace(spec, transform="identity"),
                              slack)

    def delta2(trial):
        sample = generate_member(limit_spec, seed, N, "delta2_member", trial)
        delta = small_argument_threshold(spec.orlicz, 0.1)
        return check_delta2_inclusion(sample.sequence, spec.orlicz, limit_spec, delta, 0.1,
                                      ell=sample.ell, tols=tols, slack=slack)

    def exponents(trial):
        p = Exponents.constant(1.0)
        q = Exponents.constant(2.0) if trial % 2 == 0 else Exponents.formula(1.0, 1.0)
        member = replace(spec, exponents=q)
        sample = generate_member(member, seed, N, "exponent_member", trial)
        return check_exponent_inclusion(sample.sequence, p, q, spec, tols=tols, slack=slack)

    def density(trial):
        rng = random.Random(f"{seed}:density_bound:{trial}")
        x = from_log([rng.uniform(-3.0, 3.0) for _ in range(N)])
        ell = GeoScalar.from_log(rng.uniform(-1.0, 1.0))
        epsilon = GeoScalar.from_log(rng.uniform(0.1, 2.0))
        pairs = [modular_density_bound(x, spec, ell, epsilon, n) for n in range(1, N)]
        return _scan_reference("density_bound", pairs, slack, upper=False)

    def consistency(trial):
        sample = generate_member(density_spec, seed, N, "consistency_member", trial)
        report = classify_membership(sample.sequence, density_spec, tols)
        if report.verdict != CONVERGING:
            return CheckOutcome("stat_consistency", False, math.inf,
                                f"generated member classified {report.verdict}")
        for eps_log in (0.1, 1.0, 2.0):
            trace = stat_density(sample.sequence, spec.lam, report.limit_estimate,
                                 GeoScalar.from_log(eps_log))
            verdict = stat_converges(trace, tols)
            if verdict != CONVERGING:
                return CheckOutcome("stat_consistency", False, math.inf,
                                    f"density verdict {verdict} at ln eps = {eps_log}")
        return CheckOutcome("stat_consistency", True, 0.0)

    checks = {"linear_combination": linear, "solidity": solidity,
              "delta2_inclusion": delta2, "exponent_inclusion": exponents,
              "density_bound": density, "stat_consistency": consistency}
    if not delta2_constant(spec.orlicz).satisfied:
        del checks["delta2_inclusion"]
    out = {}
    for name, fn in checks.items():
        out[name] = []
        for trial in range(config.trials):
            try:
                o = fn(trial)
            except Exception as exc:
                out[name].append((False, math.inf, str(exc)))
            else:
                out[name].append((o.passed, o.worst_violation, o.detail))
    return out


class TestSuiteEquivalence:
    """run_suite, which shares each member's view, plan and verdicts between
    the calls of one trial, equals the public per-member calls."""

    ORLICZ = {
        "power1": OrliczFunction.power(1.0),
        "power2": OrliczFunction.power(2.0),
        "x_log1p": OrliczFunction.x_log1p(),
        "exp_minus_one": OrliczFunction.exp_minus_one(),
        "table": OrliczFunction.table([[0, 0], [0.5, 0.2], [1.0, 1.0], [2.0, 3.5]]),
        # the window bounds hold but the M-modular verdict does not converge:
        # delta2_inclusion fails end to end, after both verdicts
        "steep_table": OrliczFunction.table([[0, 0], [1e-30, 1.0], [2e-30, 2.5]]),
        # no small-argument threshold: every delta2_inclusion trial raises
        "no_threshold": OrliczFunction.table(
            [[0, 0], [5e-324, 1.0], [1.0, 2.0], [2.0, 4.0]]
        ),
    }

    @staticmethod
    def assert_equal(config):
        rep = run_suite(config)
        want = rebuild_suite(config)
        ran = [c for c in rep.checks if c.skipped is None]
        assert [c.name for c in ran] == list(want)
        rows = [(name, trial, passed, worst)
                for name, outs in want.items()
                for trial, (passed, worst, _) in enumerate(outs)]
        assert rep.rows == rows
        for check in ran:
            failed = [(t, d) for t, (ok, _, d) in enumerate(want[check.name]) if not ok]
            assert check.failures == len(failed)
            assert check.first_failure == (
                f"trial {failed[0][0]}: {failed[0][1]}" if failed else None
            )
        return rep

    @pytest.mark.parametrize("orlicz", ORLICZ)
    @pytest.mark.parametrize("variant, transform", [
        ("zero", "fhat"), ("limit", "fhat"), ("zero", "identity"), ("limit", "identity"),
        ("bounded", "fhat"),
    ])
    def test_rows_and_details(self, orlicz, variant, transform):
        spec = base_spec(orlicz=self.ORLICZ[orlicz], variant=variant, transform=transform)
        self.assert_equal(TrialConfig(seed=7, trials=4, length=56, spec=spec))

    def test_failing_configs(self):
        # tol = 0: no verdict converges, so consistency fails every trial and
        # the end-to-end checks stop after the strong verdict
        rep = self.assert_equal(TrialConfig(seed=2, trials=4, length=56,
                                            tolerances=Tolerances(tol=0.0)))
        assert rep.checks[-1].failures == 4
        rep = self.assert_equal(TrialConfig(
            seed=2, trials=4, length=56, spec=base_spec(orlicz=self.ORLICZ["steep_table"])))
        d2 = rep.checks[2]
        assert d2.failures == 4 and "M-modular verdict inconclusive" in d2.first_failure
        rep = self.assert_equal(TrialConfig(
            seed=2, trials=4, length=56, spec=base_spec(orlicz=self.ORLICZ["no_threshold"])))
        missing = "no positive small-argument threshold at eps=0.1"
        assert rep.checks[2].first_failure == f"trial 0: {missing}"


def _fake_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counting_forks(monkeypatch):
    """Record the pid of every child forked from this process."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelTrials:
    """The trials run over forked workers; the report is the serial one."""

    ORLICZ = {
        "power2": OrliczFunction.power(2.0),
        "x_log1p": OrliczFunction.x_log1p(),
        "exp_minus_one": OrliczFunction.exp_minus_one(),
        # doubling holds, but no small-argument threshold: every Δ2 trial raises
        "no_threshold": OrliczFunction.table([[0, 0], [1e-30, 1.0], [2e-30, 2.5]]),
    }

    @staticmethod
    def suite(monkeypatch, cpus, config):
        _fake_cpus(monkeypatch, cpus)
        return run_suite(config)

    @staticmethod
    def assert_same(a, b):
        assert a == b
        for fmt in ("text", "json", "csv"):
            assert emit_report(a, fmt) == emit_report(b, fmt)

    @pytest.mark.parametrize("trials", [0, 1, 3, 7])
    @pytest.mark.parametrize("orlicz", list(ORLICZ))
    def test_parallel_report_equals_serial(self, monkeypatch, orlicz, trials):
        config = TrialConfig(
            seed=5, trials=trials, length=56,
            spec=base_spec(lam=LambdaSequence.half(), orlicz=self.ORLICZ[orlicz]),
        )
        serial = self.suite(monkeypatch, 1, config)
        forked = _counting_forks(monkeypatch)
        parallel = self.suite(monkeypatch, 3, config)
        assert len(forked) == max(0, min(3, trials) - 1)
        self.assert_same(parallel, serial)
        if orlicz == "no_threshold" and trials:
            d2 = parallel.checks[2]
            assert (d2.name, d2.failures, d2.worst_violation) == (
                "delta2_inclusion", trials, 0.0
            )
        assert_no_child_left()

    def test_failing_trials(self, monkeypatch):
        real = _scan_windows

        def scan(name, lhs, rhs, slack, upper=True):
            # a violation, verdict and detail of its own for every trial
            total = math.fsum(lhs)
            out = real(name, lhs, rhs, slack, upper)
            failed = int(abs(total) * 1e3) % 3 == 0
            return CheckOutcome(out.name, not failed, total,
                                f"{name}: {total!r}" if failed else None)

        monkeypatch.setattr("geoseq.harness._scan_windows", scan)
        config = TrialConfig(seed=2, trials=7, length=48, tolerances=Tolerances(tol=0.0))
        serial = self.suite(monkeypatch, 1, config)
        parallel = self.suite(monkeypatch, 3, config)
        self.assert_same(parallel, serial)
        assert len({row[3] for row in serial.rows if row[0] == "solidity"}) == 7
        assert 0 < sum(c.failures for c in serial.checks[:-1]) < 5 * 7
        assert serial.checks[-1].failures == 7  # tol = 0: every member inconclusive

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_density_verdict_failure(self, monkeypatch, cpus):
        # every generated member classifies converging at this seed, so each
        # trial reaches the density verdicts and fails at the first epsilon
        seen = []

        def inconclusive(trace, tols):
            seen.append(trace.epsilon.log)
            return INCONCLUSIVE

        monkeypatch.setattr("geoseq.harness.stat_converges", inconclusive)
        forked = _counting_forks(monkeypatch)
        report = self.suite(monkeypatch, cpus, TrialConfig(seed=42, trials=5, length=56))
        assert len(forked) == cpus - 1
        *others, check = report.checks
        assert all(c.passed for c in others)
        assert (check.name, check.trials, check.failures, check.worst_violation) == (
            "stat_consistency", 5, 5, math.inf
        )
        assert check.first_failure == "trial 0: density verdict inconclusive at ln eps = 0.1"
        assert [row for row in report.rows if row[0] == check.name] == [
            (check.name, trial, False, math.inf) for trial in range(5)
        ]
        # one density verdict per trial run in this process; forked workers
        # run the other trials
        assert set(seen) == {0.1} and len(seen) <= 5
        if cpus == 1:
            assert len(seen) == 5
        assert_no_child_left()

    def test_the_parent_runs_the_first_slice(self, monkeypatch):
        parent = os.getpid()
        members = []
        real = _generate

        def member(spec, seed, length, check, trial):
            if os.getpid() == parent:
                members.append((check, trial))
            return real(spec, seed, length, check, trial)

        monkeypatch.setattr("geoseq.harness._generate", member)
        self.suite(monkeypatch, 3, TrialConfig(seed=1, trials=7, length=48))
        # trials [0, 7 // 3) of every check; the children run [2, 4) and [4, 7)
        assert members == [
            (check, trial)
            for check in ("solidity_member", "delta2_member", "exponent_member",
                          "consistency_member")
            for trial in (0, 1)
        ]

    @pytest.mark.parametrize("fault", ["exit status", "unreadable data"])
    def test_failed_child_slice_is_rerun_here(self, monkeypatch, fault):
        config = TrialConfig(seed=3, trials=7, length=48)
        serial = self.suite(monkeypatch, 1, config)
        parent = os.getpid()
        in_parent = []
        real = _solidity

        def solidity(*args):
            if os.getpid() == parent:
                in_parent.append(1)
            return real(*args)

        monkeypatch.setattr("geoseq.harness._solidity", solidity)
        if fault == "exit status":
            real_exit = os._exit
            monkeypatch.setattr(os, "_exit", lambda code: real_exit(7))
        else:
            monkeypatch.setattr("geoseq.harness.marshal.dumps", lambda obj: b"\x00garbage")
        parallel = self.suite(monkeypatch, 3, config)
        self.assert_same(parallel, serial)
        assert len(in_parent) == 7  # its own slice and both children's
        assert_no_child_left()

    def test_no_child_left_when_the_parent_slice_raises(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        parent = os.getpid()
        real = check_linear_combination

        def linear(*args):
            if os.getpid() == parent:
                raise Interrupt
            return real(*args)

        monkeypatch.setattr("geoseq.harness.check_linear_combination", linear)
        forked = _counting_forks(monkeypatch)
        with pytest.raises(Interrupt):
            self.suite(monkeypatch, 3, TrialConfig(seed=1, trials=3, length=48))
        assert len(forked) == 2
        assert_no_child_left()

    def test_each_pipe_has_one_reader(self, monkeypatch):
        reads = []
        real_pipe = os.pipe

        def pipe():
            r, w = real_pipe()
            reads.append(r)
            return r, w

        def held(trial):
            # the read ends of the workers' pipes that this process holds
            fds = []
            for fd in reads:
                try:
                    os.fstat(fd)
                    fds.append(fd)
                except OSError:
                    pass
            return CheckOutcome("pipes", True, 0.0, repr(fds))

        monkeypatch.setattr(os, "pipe", pipe)
        outcomes = _run_trials([held], 3, 3)
        assert len(reads) == 2
        # so a worker blocked on a full pipe gets EPIPE once this process
        # stops reading, not when a later worker exits
        assert outcomes == [[(True, 0.0, repr(reads)), (True, 0.0, "[]"), (True, 0.0, "[]")]]
        assert_no_child_left()

    def test_no_fork_beside_a_live_thread(self, monkeypatch):
        config = TrialConfig(seed=4, trials=3, length=48)
        serial = self.suite(monkeypatch, 1, config)

        def fork():
            raise AssertionError("forked a threaded process")

        monkeypatch.setattr(os, "fork", fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            parallel = self.suite(monkeypatch, 3, config)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        self.assert_same(parallel, serial)

    @pytest.mark.parametrize("part", ["lam", "orlicz", "exponents"])
    def test_subclassed_space_runs_here(self, monkeypatch, part):
        calls = []

        class CountingLambda(LambdaSequence):
            def window(self, n):
                calls.append(n)
                return LambdaSequence.window(self, n)

        class CountingOrlicz(OrliczFunction):
            def eval(self, t):
                calls.append(t)
                return OrliczFunction.eval(self, t)

            __call__ = eval

        class CountingExponents(Exponents):
            # the traces read whole profiles, never at(k)
            def _over(self, ks):
                calls.append(ks)
                return Exponents._over(self, ks)

        subclass = {
            "lam": CountingLambda.half(),
            "orlicz": CountingOrlicz.power(2.0),
            "exponents": CountingExponents.formula(1.0, 1.0),
        }[part]
        config = TrialConfig(seed=6, trials=3, length=48, spec=base_spec(**{part: subclass}))
        serial = self.suite(monkeypatch, 1, config)
        serial_calls, calls[:] = len(calls), []

        def fork():
            raise AssertionError("forked with a subclassed space")

        monkeypatch.setattr(os, "fork", fork)
        # every call is made here, as in a serial run, so the subclass sees it
        self.assert_same(self.suite(monkeypatch, 3, config), serial)
        assert len(calls) == serial_calls > 0

    @pytest.mark.parametrize("files, cpus", [
        ({}, 4),
        ({"cpu.max": "max 100000\n"}, 4),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "300000 100000\n"}, 3),
        ({"cpu.max": "not a quota\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "100000\n"}, 4),  # no period: no quota read
        # cgroup v2 first
        ({"cpu.max": "max 100000\n", "cpu/cpu.cfs_quota_us": "100000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 4),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
    def test_worker_count_honours_the_cpu_quota(self, monkeypatch, tmp_path, files, cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr("geoseq.harness._CGROUP", str(tmp_path))
        _fake_cpus(monkeypatch, 4)
        assert _worker_count(TrialConfig(trials=100)) == cpus
        assert _worker_count(TrialConfig(trials=2)) == min(cpus, 2)
        assert _worker_count(TrialConfig(trials=0)) == 1

    def test_orphaned_worker_stops_at_the_next_trial(self, monkeypatch):
        ran = []

        def fn(trial):
            ran.append(trial)
            return CheckOutcome("trial", True, 0.0)

        ppids = iter([100, 100, 1])  # the parent, pid 100, exits after two trials
        monkeypatch.setattr(os, "getppid", lambda: next(ppids))
        with pytest.raises(_ParentGone):
            _outcomes([fn, fn], 0, 5, parent=100)
        assert ran == [0, 1]

        # the calling process's own slice never asks for its parent
        def getppid():
            raise AssertionError("asked for the parent pid")

        monkeypatch.setattr(os, "getppid", getppid)
        assert _outcomes([fn], 0, 2) == [[(True, 0.0, None)] * 2]

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, monkeypatch, missing):
        config = TrialConfig(seed=4, trials=3, length=48)
        serial = self.suite(monkeypatch, 1, config)
        forked = _counting_forks(monkeypatch)
        monkeypatch.delattr(os, missing)
        if missing == "fork":
            _fake_cpus(monkeypatch, 3)
        self.assert_same(run_suite(config), serial)
        assert forked == []
