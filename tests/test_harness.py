"""Member generation and the randomised inequality/inclusion checks."""

import math
import os
import random
import threading
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
from geoseq.harness import CheckOutcome, _default_spec, _run_trials, _scan_windows
from geoseq.orlicz_checks import small_argument_threshold


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

    def test_custom_lambda_must_cover_the_length(self):
        lam = LambdaSequence.custom([1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        TrialConfig(trials=0, length=10, spec=base_spec(lam=lam))
        with pytest.raises(ValueError, match="custom lambda of length 10 is shorter"):
            TrialConfig(trials=0, length=11, spec=base_spec(lam=lam))

    @pytest.mark.parametrize("transform, length, windows", [
        ("fhat", 40, 39), ("fhat", 8, 7), ("identity", 39, 39),
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

    @pytest.mark.parametrize("transform, length", [("fhat", 41), ("identity", 40)])
    def test_forty_windows_run_consistency(self, transform, length):
        spec = base_spec(transform=transform)
        rep = run_suite(TrialConfig(seed=1, trials=2, length=length, spec=spec))
        check = rep.checks[-1]
        assert (check.name, check.trials, check.skipped) == ("stat_consistency", 2, None)


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
            return replace(out, passed=not failed, worst_violation=total,
                           detail=f"{name}: {total!r}" if failed else None)

        monkeypatch.setattr("geoseq.harness._scan_windows", scan)
        config = TrialConfig(seed=2, trials=7, length=48, tolerances=Tolerances(tol=0.0))
        serial = self.suite(monkeypatch, 1, config)
        parallel = self.suite(monkeypatch, 3, config)
        self.assert_same(parallel, serial)
        assert len({row[3] for row in serial.rows if row[0] == "solidity"}) == 7
        assert 0 < sum(c.failures for c in serial.checks[:-1]) < 5 * 7
        assert serial.checks[-1].failures == 7  # tol = 0: every member inconclusive

    def test_the_parent_runs_the_first_slice(self, monkeypatch):
        parent = os.getpid()
        members = []
        real = generate_member

        def member(spec, seed, length, check, trial):
            if os.getpid() == parent:
                members.append((check, trial))
            return real(spec, seed, length, check, trial)

        monkeypatch.setattr("geoseq.harness.generate_member", member)
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
        real = check_solidity

        def solidity(*args):
            if os.getpid() == parent:
                in_parent.append(1)
            return real(*args)

        monkeypatch.setattr("geoseq.harness.check_solidity", solidity)
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
            def at(self, k):
                calls.append(k)
                return Exponents.at(self, k)

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
