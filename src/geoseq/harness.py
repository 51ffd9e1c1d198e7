"""Randomised verification of the space inclusions and modular inequalities.

Members of the windowed modular spaces are manufactured by prescribing
the transformed profile on the windowed indices and inverting the banded
relation in its contractive direction (from the last index backwards,
each step multiplies by ratio**2 < 0.41), so reconstruction is stable at
any length and the forward transform reproduces the prescription to
rounding error.  The boundary row is implied and never windowed.

Each check verifies a finite, exact-given-arithmetic inequality on every
window of every generated instance, plus an end-to-end membership
consequence where the claim has one.  All randomness flows from a single
seed through named per-trial substreams, so two runs of the same
configuration produce identical reports.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .fibonacci import fib_ratio
from .geometric import GeoScalar, GeoSequence
from .membership import CONVERGING, _short_truncation, classify_membership
from .orlicz import DegenerateOrliczError, OrliczFunction
from .orlicz_checks import Delta2Report, delta2_constant, small_argument_threshold
from .statconv import stat_converges, stat_density
from .summability import (
    Exponents,
    LambdaSequence,
    SpaceSpec,
    Tolerances,
    _exponent_values,
    _modular_terms,
    _window_means,
    modular_trace,
    window_trace,
    windowed_logs,
)

__all__ = [
    "TrialConfig",
    "MemberSample",
    "CheckOutcome",
    "SuiteCheck",
    "SuiteReport",
    "suite_report_dict",
    "generate_member",
    "check_linear_combination",
    "check_solidity",
    "check_delta2_inclusion",
    "check_exponent_inclusion",
    "run_suite",
]


def _default_spec() -> SpaceSpec:
    return SpaceSpec(
        lam=LambdaSequence.half(),
        orlicz=OrliczFunction.power(2.0),
        exponents=Exponents.constant(1.0),
        variant="zero",
        transform="fhat",
        rho=1.0,
    )


@dataclass(frozen=True)
class TrialConfig:
    """Reproducible parameterisation of one suite run."""

    seed: int = 42
    trials: int = 100
    length: int = 56
    spec: SpaceSpec = field(default_factory=_default_spec)
    slack: float = 1e-12
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.length < 8:
            raise ValueError("length must be >= 8")
        if self.slack <= 0:
            raise ValueError("slack must be positive")
        lam = self.spec.lam
        if lam.kind == "custom" and len(lam.values) < self.length:
            # solidity windows the identity view: one window per term
            raise ValueError(
                f"custom lambda of length {len(lam.values)} is shorter than"
                f" the suite length {self.length}"
            )

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "length": self.length,
            "spec": self.spec.describe(),
            "slack": self.slack,
            "tolerances": self.tolerances.describe(),
        }


def _rng(seed, check: str, trial: int) -> random.Random:
    # documented substream rule: one generator per (seed, check, trial)
    return random.Random(f"{seed}:{check}:{trial}")


@dataclass(frozen=True)
class MemberSample:
    """A generated member plus the profile it was built to realise."""

    sequence: GeoSequence
    target: tuple  # prescribed windowed view, index k stored at [k-1]
    ell: Optional[GeoScalar]


def _reconstruct_logs(target: Sequence[float], transform: str, anchor: float) -> list:
    """Log-view whose windowed view under ``transform`` equals ``target``."""
    if transform == "identity":
        return list(target)
    m = len(target)
    n_terms = m + 1
    u = [0.0] * n_terms
    u[n_terms - 1] = anchor
    for k in range(n_terms - 1, 0, -1):
        r_k = fib_ratio(k)
        # solve target[k-1] = r_k u[k] - u[k-1]/r_k for u[k-1]
        u[k - 1] = r_k * (r_k * u[k] - target[k - 1])
    return u


def generate_member(
    spec: SpaceSpec, seed, length: int, check: str = "member", trial: int = 0
) -> MemberSample:
    """Draw a member of the spec's space at the given truncation length.

    The windowed profile is prescribed to match the variant (vanishing:
    geometric decay; limit: a level plus decay; bounded: uniform noise)
    and the stored sequence realises it to within 1e-10.
    """
    rng = _rng(seed, check, trial)
    m = length if spec.transform == "identity" else length - 1
    if m < 1:
        raise ValueError("length too short for the chosen transform")

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
        target = [
            level + rng.choice((-1.0, 1.0)) * amp * decay ** k
            for k in range(1, m + 1)
        ]

    anchor = rng.uniform(-0.5, 0.5)
    u = _reconstruct_logs(target, spec.transform, anchor)
    seq = GeoSequence.from_log(u)

    realised = windowed_logs(seq, spec.transform)
    scale = max(1.0, max(abs(t) for t in target))
    worst = max(abs(a - b) for a, b in zip(realised, target))
    if worst > 1e-10 * scale:
        raise ArithmeticError(
            f"member reconstruction drifted: {worst:.3e} on scale {scale:.3e}"
        )
    return MemberSample(sequence=seq, target=tuple(target), ell=ell)


@dataclass
class CheckOutcome:
    """Result of one inequality check over all windows of one instance."""

    name: str
    passed: bool
    worst_violation: float
    detail: Optional[str] = None


def _scan_windows(
    name: str, lhs: Sequence[float], rhs: Sequence[float], slack: float, upper: bool = True
) -> CheckOutcome:
    """Check lhs <= rhs (``upper``) or lhs >= rhs on every window.

    ``slack`` is relative to max(1, |rhs|).  The outcome names the first
    failing window and carries the worst violation seen up to it.
    """
    worst = 0.0
    for n, (l, r) in enumerate(zip(lhs, rhs), 1):
        violation = l - r if upper else r - l
        if violation > worst:
            worst = violation
        if violation > slack * max(1.0, abs(r)):
            return CheckOutcome(
                name, False, worst, f"window {n}: {l} {'>' if upper else '<'} {r}"
            )
    return CheckOutcome(name, True, worst)


def _end_to_end(
    outcome: CheckOutcome, x: GeoSequence, strong: SpaceSpec, weak: SpaceSpec,
    tols: Tolerances, labels: tuple,
) -> CheckOutcome:
    """Fail a passed ``outcome`` when x converges under ``strong`` but not
    under ``weak`` (the stronger space lies inside the weaker one);
    ``labels`` name the two verdicts in the detail."""
    if not outcome.passed:
        return outcome
    strong_verdict = classify_membership(x, strong, tols).verdict
    weak_verdict = classify_membership(x, weak, tols).verdict
    if strong_verdict == CONVERGING and weak_verdict != CONVERGING:
        detail = f"end-to-end: {labels[0]} {strong_verdict} but {labels[1]} {weak_verdict}"
        return replace(outcome, passed=False, detail=detail)
    return outcome


def check_linear_combination(
    x: GeoSequence,
    y: GeoSequence,
    a: float,
    b: float,
    spec: SpaceSpec,
    rho1: float,
    rho2: float,
    slack: float = 1e-12,
) -> CheckOutcome:
    """Windowed modular bound for the scaled geometric combination.

    With combined scale rho3 = max(2|a| rho1, 2|b| rho2), every window
    satisfies  S(a|>x (+) b|>y; rho3) <= B [S(x; rho1) + S(y; rho2)]
    where B = max(1, 2**(H-1)); convexity and monotonicity of M give the
    per-term estimate, and B >= 1 absorbs the exponent split.
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError("component scales must be positive")
    zx = windowed_logs(x, spec.transform)
    zy = windowed_logs(y, spec.transform)
    if len(zx) != len(zy):
        raise ValueError("sequences must share a truncation length")
    z3 = [a * p + b * q for p, q in zip(zx, zy)]
    rho3 = max(2.0 * abs(a) * rho1, 2.0 * abs(b) * rho2)
    B = spec.exponents.B
    lam, M, exps = spec.lam, spec.orlicz, spec.exponents
    if rho3 == 0.0:
        lhs = [0.0] * len(z3)  # both scalars vanish: the combination is the geometric zero
    else:
        lhs = modular_trace(z3, lam, M, exps, rho3)
    s1 = modular_trace(zx, lam, M, exps, rho1)
    s2 = modular_trace(zy, lam, M, exps, rho2)
    rhs = [B * (a1 + a2) for a1, a2 in zip(s1, s2)]
    return _scan_windows("linear_combination", lhs, rhs, slack)


def check_solidity(
    y_member: GeoSequence,
    alphas: Sequence[GeoScalar],
    spec: SpaceSpec,
    slack: float = 1e-12,
) -> CheckOutcome:
    """Scalar damping never increases the windowed modular.

    ``y_member`` is an element of the windowed space itself (identity
    view); the scalars must satisfy |ln alpha_k| <= 1, i.e. geometric
    magnitude at most e.  Masks of 0/1 log-views exercise the monotone
    (step-space) consequence.
    """
    z = list(y_member.logs)
    if len(alphas) != len(z):
        raise ValueError("need one scalar per term")
    a = []
    for i, alpha in enumerate(alphas):
        if abs(alpha.log) > 1.0 + 1e-15:
            raise ValueError(
                f"scalar {i}: geometric magnitude exceeds e (|log| = {abs(alpha.log)})"
            )
        a.append(alpha.log)
    scaled = [ai * zi for ai, zi in zip(a, z)]
    lhs = modular_trace(scaled, spec.lam, spec.orlicz, spec.exponents, spec.rho)
    rhs = modular_trace(z, spec.lam, spec.orlicz, spec.exponents, spec.rho)
    return _scan_windows("solidity", lhs, rhs, slack)


def check_delta2_inclusion(
    x: GeoSequence,
    orlicz: OrliczFunction,
    spec: SpaceSpec,
    delta: float,
    epsilon: float,
    ell: Optional[GeoScalar] = None,
    delta2: Optional[Delta2Report] = None,
    tols: Tolerances = Tolerances(),
    slack: float = 1e-12,
) -> CheckOutcome:
    """Raw windowed summability dominates the Orlicz-modular one.

    Requires M to satisfy the doubling condition (refused otherwise).
    With t_k = |z_k - ln(ell)| / rho and delta chosen so M(t) <= epsilon
    for t <= delta, every window satisfies
        mean M(t_k)  <=  epsilon + K M(2) delta**-1 * mean t_k,
    K the doubling constant.  End to end, a truncation that converges in
    the raw sense must converge in the M-modular sense.
    """
    if delta2 is None:
        delta2 = delta2_constant(orlicz)
    if not delta2.satisfied:
        return CheckOutcome(
            "delta2_inclusion",
            False,
            math.inf,
            "refused: the Orlicz function fails the doubling condition",
        )
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if orlicz.eval(delta) > epsilon + 1e-15:
        raise ValueError("delta too large: M(delta) exceeds epsilon")

    center = ell.log if ell is not None else 0.0
    z = windowed_logs(x, spec.transform)
    unit = Exponents.constant(1.0)
    raw = OrliczFunction.power(1.0)
    K = delta2.K
    factor = K * orlicz.eval(2.0) / delta
    lhs = modular_trace(z, spec.lam, orlicz, unit, spec.rho, center)
    s_raw = modular_trace(z, spec.lam, raw, unit, spec.rho, center)
    rhs = [epsilon + factor * s for s in s_raw]
    outcome = _scan_windows("delta2_inclusion", lhs, rhs, slack)
    variant = spec.variant if spec.variant != "bounded" else "zero"
    raw_spec = replace(spec, orlicz=raw, exponents=unit, variant=variant)
    m_spec = replace(spec, orlicz=orlicz, exponents=unit, variant=variant)
    labels = ("raw verdict", "M-modular verdict")
    return _end_to_end(outcome, x, raw_spec, m_spec, tols, labels)


def check_exponent_inclusion(
    x: GeoSequence,
    p: Exponents,
    q: Exponents,
    spec: SpaceSpec,
    ell: Optional[GeoScalar] = None,
    tols: Tolerances = Tolerances(),
    slack: float = 1e-12,
) -> CheckOutcome:
    """Larger exponents give the smaller space: q-membership forces p-membership.

    Per window, with t_k = M(|z_k - center|/rho)**q_k and mu_k = p_k/q_k,
    splitting t at 1 gives
        mean t_k**mu_k  <=  mean t_k + (mean v_k)**mu,
    where v_k = t_k when t_k < 1 (else 0) and mu = inf mu_k clipped into
    (0, 1].  End to end, membership under q implies membership under p.
    """
    center = ell.log if ell is not None else 0.0
    z = windowed_logs(x, spec.transform)
    m = len(z)
    mus = []
    for k in range(1, m + 1):
        pk, qk = p.at(k), q.at(k)
        if not (0.0 < pk <= qk):
            raise ValueError(f"need 0 < p <= q at every index; index {k}: {pk} > {qk}")
        mus.append(pk / qk)
    mu = min(1.0, max(1e-3, min(mus)))

    lam, M, rho = spec.lam, spec.orlicz, spec.rho
    t = _modular_terms(z, _exponent_values(q, range(1, m + 1)), M, rho, center)
    lhs = _window_means([tk ** mu_k for tk, mu_k in zip(t, mus)], lam)
    t_means = _window_means(t, lam)
    v_means = _window_means([tk if tk < 1.0 else 0.0 for tk in t], lam)
    rhs = [tm + vm ** mu for tm, vm in zip(t_means, v_means)]
    outcome = _scan_windows("exponent_inclusion", lhs, rhs, slack)
    q_spec, p_spec = replace(spec, exponents=q), replace(spec, exponents=p)
    return _end_to_end(outcome, x, q_spec, p_spec, tols, ("q-verdict", "p-verdict"))


@dataclass
class SuiteCheck:
    """Aggregate of one named check across all trials."""

    name: str
    trials: int
    failures: int
    worst_violation: float
    skipped: Optional[str] = None
    first_failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class SuiteReport:
    """Deterministic aggregate of a full suite run."""

    config: dict
    checks: list
    rows: list  # (check, trial, passed, worst_violation)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def suite_report_dict(report: SuiteReport) -> dict:
    return {
        "kind": "suite",
        "all_passed": report.all_passed,
        "config": report.config,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "trials": c.trials,
                "failures": c.failures,
                "worst_violation": c.worst_violation,
                "skipped": c.skipped,
                "first_failure": c.first_failure,
            }
            for c in report.checks
        ],
        "rows": [
            {
                "check": check,
                "trial": trial,
                "passed": passed,
                "worst_violation": worst,
            }
            for check, trial, passed, worst in report.rows
        ],
    }


def _p_profiles() -> list:
    return [
        Exponents.constant(1.0),
        Exponents.constant(1.5),
        Exponents.formula(1.0, 1.0),  # mixed: p(k) = 1 + 1/k
    ]


def _outcomes(fns: Sequence, lo: int, hi: int) -> list:
    """(passed, worst_violation, detail) of trials lo..hi-1, one list per check.

    A trial that raised has worst_violation None and its error as detail.
    """
    out = []
    for fn in fns:
        row = []
        for trial in range(lo, hi):
            try:
                outcome = fn(trial)
            except Exception as exc:  # collected, not fatal
                row.append((False, None, str(exc)))
                continue
            row.append((outcome.passed, outcome.worst_violation, outcome.detail))
        out.append(row)
    return out


def _worker_count(config: TrialConfig) -> int:
    """One process per CPU this one may run on, at most one per trial.

    One, and no fork, without ``os.fork`` or ``os.sched_getaffinity``, in
    a threaded process, or when the space's lambda, Orlicz function or
    exponents are subclasses: a subclass may keep state of its calls
    (counters, caches), and a child's calls would not reach this process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:  # forking a threaded process is unsafe
        return 1
    spec = config.spec
    if (type(spec.lam), type(spec.orlicz), type(spec.exponents)) != (
        LambdaSequence, OrliczFunction, Exponents
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), config.trials))


def _fork_slice(fns: Sequence, lo: int, hi: int, readers: Sequence):
    """(pid, read end) of a child that sends back ``_outcomes(fns, lo, hi)``
    marshalled, or (None, None) when no child can be forked.

    ``readers`` are the read ends of the earlier children's pipes; the
    child closes its copies, so each pipe's only reader is this process.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:  # the child never returns into the caller
        code = 1
        try:
            for fd in (r, *readers):
                os.close(fd)
            data = memoryview(marshal.dumps(_outcomes(fns, lo, hi)))
            while data:
                data = data[os.write(w, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _run_trials(fns: Sequence, trials: int, w: int) -> list:
    """``_outcomes(fns, 0, trials)``, split over ``w`` processes with one fork.

    Worker i runs the contiguous trials [i*T//w, (i+1)*T//w) of every
    check; this process runs slice 0 and then reads every child's pipe to
    EOF.  A slice whose child failed is run here again, so the result is
    the serial one whatever happens to a child.
    """
    bounds = [i * trials // w for i in range(w + 1)]
    children = []  # (lo, hi, pid, read end); pid None when the fork failed
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            readers = [r for _, _, pid, r in children if pid is not None]
            children.append((lo, hi, *_fork_slice(fns, lo, hi, readers)))
        outcomes = _outcomes(fns, bounds[0], bounds[1])
        payloads = []
        for _, _, pid, r in children:
            if pid is None:
                payloads.append(b"")
                continue
            with open(r, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        # close every read end before waiting: this process is each pipe's
        # only reader, so a child blocked on a full pipe gets EPIPE instead
        # of waiting for a reader that has gone
        for _, _, pid, r in children:
            if pid is not None:
                os.close(r)
        statuses = [
            os.waitpid(pid, 0)[1] if pid is not None else None
            for _, _, pid, _ in children
        ]
    for (lo, hi, _, _), data, status in zip(children, payloads, statuses):
        try:
            part = marshal.loads(data) if status == 0 else None
        except (EOFError, ValueError, TypeError):  # unreadable data
            part = None
        if part is None:
            part = _outcomes(fns, lo, hi)
        for mine, theirs in zip(outcomes, part):
            mine.extend(theirs)
    return outcomes


def run_suite(config: TrialConfig) -> SuiteReport:
    """Run every inequality and inclusion check under one seed.

    Individual trial errors are recorded as failures, not raised; an
    unsatisfied doubling condition, or a truncation too short for the
    consistency check's verdict, skips that check with a reason.  The
    trials are split over the CPUs (see ``_worker_count`` and
    ``_run_trials``); two runs of an identical configuration produce
    identical reports.
    """
    spec = config.spec
    N = config.length
    slack = config.slack
    tols = config.tolerances

    profiles = _p_profiles()
    density_spec = replace(
        spec, exponents=Exponents.constant(1.0), variant="limit", transform="fhat"
    )

    def linear(trial: int) -> CheckOutcome:
        rng = _rng(config.seed, "linear_combination", trial)
        x = GeoSequence.from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        y = GeoSequence.from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        rho1 = rng.uniform(0.5, 2.0)
        rho2 = rng.uniform(0.5, 2.0)
        p = profiles[trial % len(profiles)]
        return check_linear_combination(
            x, y, a, b, replace(spec, exponents=p), rho1, rho2, slack
        )

    def solidity(trial: int) -> CheckOutcome:
        rng = _rng(config.seed, "solidity", trial)
        sample = generate_member(
            replace(spec, transform="identity", variant="zero"),
            config.seed,
            N,
            "solidity_member",
            trial,
        )
        n_terms = len(sample.sequence)
        if trial % 2 == 0:
            alphas = [
                GeoScalar.from_log(rng.uniform(-1.0, 1.0)) for _ in range(n_terms)
            ]
        else:
            # 0/1 mask in log-view: the step-space (monotone) consequence
            alphas = [
                GeoScalar.from_log(float(rng.randint(0, 1))) for _ in range(n_terms)
            ]
        return check_solidity(
            sample.sequence, alphas, replace(spec, transform="identity"), slack
        )

    def delta2(trial: int) -> CheckOutcome:
        sample = generate_member(
            replace(spec, variant="limit"), config.seed, N, "delta2_member", trial
        )
        if no_delta is not None:
            raise DegenerateOrliczError(no_delta)
        return check_delta2_inclusion(
            sample.sequence,
            spec.orlicz,
            replace(spec, variant="limit"),
            delta,
            d2_eps,
            ell=sample.ell,
            delta2=d2_report,
            tols=tols,
            slack=slack,
        )

    def exponents(trial: int) -> CheckOutcome:
        if trial % 2 == 0:
            p = Exponents.constant(1.0)
            q = Exponents.constant(2.0)
        else:
            p = Exponents.constant(1.0)
            q = Exponents.formula(1.0, 1.0)  # q(k) = p(k) + 1/k
        sample = generate_member(
            replace(spec, exponents=q), config.seed, N, "exponent_member", trial
        )
        return check_exponent_inclusion(
            sample.sequence, p, q, spec, tols=tols, slack=slack
        )

    def density(trial: int) -> CheckOutcome:
        rng = _rng(config.seed, "density_bound", trial)
        x = GeoSequence.from_log([rng.uniform(-3.0, 3.0) for _ in range(N)])
        ell = GeoScalar.from_log(rng.uniform(-1.0, 1.0))
        epsilon = GeoScalar.from_log(rng.uniform(0.1, 2.0))
        # statconv.modular_density_bound on every window at once
        lhs = window_trace(x, density_spec, ell)
        m_eps = spec.orlicz.eval(epsilon.log / spec.rho)
        rhs = [m_eps * d for d in stat_density(x, spec.lam, ell, epsilon).densities]
        return _scan_windows("density_bound", lhs, rhs, slack, upper=False)

    def consistency(trial: int) -> CheckOutcome:
        sample = generate_member(
            replace(spec, variant="limit"), config.seed, N, "consistency_member", trial
        )
        m_spec = replace(spec, variant="limit", exponents=Exponents.constant(1.0))
        report = classify_membership(sample.sequence, m_spec, tols)
        if report.verdict != CONVERGING:
            return CheckOutcome(
                "stat_consistency",
                False,
                math.inf,
                f"generated member classified {report.verdict}",
            )
        for eps_log in (0.1, 1.0, 2.0):
            trace = stat_density(
                sample.sequence,
                spec.lam,
                report.limit_estimate,
                GeoScalar.from_log(eps_log),
            )
            verdict = stat_converges(trace, tols)
            if verdict != CONVERGING:
                return CheckOutcome(
                    "stat_consistency",
                    False,
                    math.inf,
                    f"density verdict {verdict} at ln eps = {eps_log}",
                )
        return CheckOutcome("stat_consistency", True, 0.0)

    try:
        d2_report = delta2_constant(spec.orlicz)
        d2_skip = None if d2_report.satisfied else (
            "skipped: the configured Orlicz function fails the doubling condition"
        )
    except Exception as exc:
        d2_skip = f"skipped: {exc}"
    if d2_skip is None:
        d2_eps = 0.1
        try:  # one value for all trials; without one, each trial fails
            delta, no_delta = small_argument_threshold(spec.orlicz, d2_eps), None
        except DegenerateOrliczError as exc:
            delta, no_delta = math.nan, str(exc)

    # every consistency member has this many windows; too few, and
    # classify_membership can only answer inconclusive
    short = _short_truncation(N if spec.transform == "identity" else N - 1, tols)

    plan = [  # (name, trial function, reason to skip)
        ("linear_combination", linear, None),
        ("solidity", solidity, None),
        ("delta2_inclusion", delta2, d2_skip),
        ("exponent_inclusion", exponents, None),
        ("density_bound", density, None),
        ("stat_consistency", consistency, None if short is None else f"skipped: {short}"),
    ]
    fns = [fn for _, fn, skip in plan if skip is None]
    outcomes = iter(_run_trials(fns, config.trials, _worker_count(config)))
    checks: list = []
    rows: list = []
    for name, _, skip in plan:
        if skip is not None:
            checks.append(SuiteCheck(name, 0, 0, 0.0, skip, None))
            continue
        failures = 0
        worst = 0.0
        first = None
        for trial, (passed, violation, detail) in enumerate(next(outcomes)):
            if violation is None:  # the trial raised
                rows.append((name, trial, False, math.inf))
            else:
                if violation > worst:
                    worst = violation
                rows.append((name, trial, passed, violation))
            if not passed:
                failures += 1
                if first is None:
                    first = f"trial {trial}: {detail}"
        checks.append(SuiteCheck(name, config.trials, failures, worst, None, first))

    return SuiteReport(config=config.describe(), checks=checks, rows=rows)
