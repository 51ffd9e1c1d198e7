"""Randomised verification of the space inclusions and modular inequalities.

Members of the windowed modular spaces are manufactured by prescribing
the transformed profile on the windowed indices and inverting the banded
relation in its contractive direction (from the last index backwards,
each step multiplies by ratio**2 < 0.41), so reconstruction is stable at
any length and the forward transform reproduces the prescription to
rounding error.  The boundary row is implied and never windowed.

Each check verifies a finite, exact-given-arithmetic inequality on every
window of every generated instance, plus an end-to-end membership
consequence where the claim has one.  :data:`_CHECKS` lists the checks
in report order, each with its skip rule and its trial function
``(suite, trial) -> CheckOutcome``; :func:`run_suite` builds one
:class:`_Suite` (each check's derived spaces, built once) and runs every
entry's trials on it.  All randomness flows from a single seed through
named per-trial substreams, so two runs of the same configuration
produce identical reports.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from collections import namedtuple
from dataclasses import replace
from functools import partial
from itertools import chain, repeat
from operator import gt, mul, sub, truediv
from typing import Optional, Sequence

from .fibonacci import _RATIOS
from .geometric import GeoScalar, GeoSequence
from .membership import CONVERGING, _short_truncation, _verdict
from .orlicz import DegenerateOrliczError, OrliczFunction
from .orlicz_checks import Delta2Report, delta2_constant, small_argument_threshold
from .record import FrozenRecord, Record
from .statconv import _density, stat_converges
from .summability import (
    Exponents,
    LambdaSequence,
    SpaceSpec,
    Tolerances,
    _modular_terms,
    _window_means,
    modular_trace,
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


# relative slack of every window comparison (see _scan_windows)
_WINDOW_SLACK = 1e-12


def _default_spec() -> SpaceSpec:
    return SpaceSpec(
        lam=LambdaSequence.half(),
        orlicz=OrliczFunction.power(2.0),
        exponents=Exponents.constant(1.0),
        variant="zero",
        transform="fhat",
        rho=1.0,
    )


class TrialConfig(FrozenRecord):
    """Reproducible parameterisation of one suite run; ``spec`` and
    ``tolerances`` default to :func:`_default_spec` and ``Tolerances()``."""

    __slots__ = ("seed", "trials", "length", "spec", "tolerances")
    slack = _WINDOW_SLACK  # a class attribute, not a field

    def __init__(
        self,
        seed: int = 42,
        trials: int = 100,
        length: int = 56,
        spec: Optional[SpaceSpec] = None,
        tolerances: Optional[Tolerances] = None,
    ):
        for what, n, least in ("trials", trials, 0), ("length", length, 8):
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"{what} must be an integer, got {n!r}")
            if n < least:
                raise ValueError(f"{what} must be >= {least}")
        spec = _default_spec() if spec is None else spec
        # solidity windows the identity view: one window and one exponent per term
        for what, seq in ("custom lambda", spec.lam), ("exponent list", spec.exponents):
            if seq.values is not None and len(seq.values) < length:
                raise ValueError(
                    f"{what} of length {len(seq.values)} is shorter than"
                    f" the suite length {length}"
                )
        tolerances = Tolerances() if tolerances is None else tolerances
        self._freeze(seed, trials, length, spec, tolerances)

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


# The suite draws as random.Random does on Python 3.10 to 3.13, without its
# per-draw calls, so every trial's stream and report stay the same:
# rng.uniform(a, b) is a + (b - a) * rng.random(), written out with b - a
# exact, and rng.choice of two items and rng.randint(0, 1) are each the
# first rng.getrandbits(2) below 2 (tests/test_harness.py compares them).


def _bits(rng: random.Random, n: int) -> list:
    """n draws of ``rng.randint(0, 1)``: the first n values below 2 of
    ``rng.getrandbits(2)``, drawn no further than the n-th of them."""
    getrandbits = rng.getrandbits
    out = []
    while len(out) < n:  # each draw gives at most one value
        out += filter((2).__gt__, map(getrandbits, repeat(2, n - len(out))))
    return out


_SIGNS = (-1.0, 1.0)


class MemberSample(FrozenRecord):
    """A generated member plus the profile it was built to realise.

    ``target`` is the prescribed windowed view, index k stored at [k-1].
    """

    __slots__ = ("sequence", "target", "ell")

    def __init__(self, sequence: GeoSequence, target: tuple, ell: Optional[GeoScalar]):
        self._freeze(sequence, target, ell)


def _reconstruct_logs(target: Sequence[float], transform: str, anchor: float) -> list:
    """Log-view whose windowed view under ``transform`` equals ``target``."""
    if transform == "identity":
        return list(target)
    n_terms = len(target) + 1
    # f(k)/f(k+1) for k < n_terms, the last tabulated ratio beyond the table
    ratios = _RATIOS[:n_terms] + _RATIOS[-1:] * (n_terms - len(_RATIOS))
    u = [0.0] * n_terms
    u[n_terms - 1] = prev = anchor
    for k in range(n_terms - 1, 0, -1):
        r_k = ratios[k]
        # solve target[k-1] = r_k u[k] - u[k-1]/r_k for u[k-1]
        u[k - 1] = prev = r_k * (r_k * prev - target[k - 1])
    return u


def generate_member(
    spec: SpaceSpec, seed, length: int, check: str = "member", trial: int = 0
) -> MemberSample:
    """Draw a member of the spec's space at the given truncation length.

    The windowed profile is prescribed to match the variant (vanishing:
    geometric decay; limit: a level plus decay; bounded: uniform noise)
    and the stored sequence realises it to within 1e-10.
    """
    return _generate(spec, seed, length, check, trial)[0]


def _generate(spec: SpaceSpec, seed, length: int, check: str, trial: int) -> tuple:
    """(sample, view): :func:`generate_member`'s sample and the member's
    windowed view under ``spec.transform``, which the drift check
    computes, for the checks that window the member in that view."""
    rng = _rng(seed, check, trial)
    m = length if spec.transform == "identity" else length - 1
    if m < 1:
        raise ValueError("length too short for the chosen transform")

    rand = rng.random
    ell = None
    amp = 0.5 + 1.0 * rand()  # uniform(0.5, 1.5)
    decay = 0.35 + (0.55 - 0.35) * rand()  # uniform(0.35, 0.55)
    if spec.variant == "bounded":
        target = [-3.0 + 6.0 * rand() for _ in range(m)]  # uniform(-3, 3)
    else:
        level = 0.0
        if spec.variant == "limit":
            level = -2.0 + 4.0 * rand()  # uniform(-2, 2)
            ell = GeoScalar.from_log(level)
        signs = map(_SIGNS.__getitem__, _bits(rng, m))  # choice(_SIGNS) per term
        target = [level + sign * amp * decay ** k for k, sign in enumerate(signs, 1)]

    anchor = -0.5 + 1.0 * rand()  # uniform(-0.5, 0.5)
    u = _reconstruct_logs(target, spec.transform, anchor)
    seq = GeoSequence.from_log(u)

    realised = windowed_logs(seq, spec.transform)
    scale = max(1.0, max(map(abs, target)))
    worst = max(map(abs, map(sub, realised, target)))
    if worst > 1e-10 * scale:
        raise ArithmeticError(
            f"member reconstruction drifted: {worst:.3e} on scale {scale:.3e}"
        )
    return MemberSample(seq, tuple(target), ell), realised


class CheckOutcome(Record):
    """Result of one inequality check over all windows of one instance."""

    __slots__ = ("name", "passed", "worst_violation", "detail")

    def __init__(
        self, name: str, passed: bool, worst_violation: float, detail: Optional[str] = None
    ):
        self.name = name
        self.passed = passed
        self.worst_violation = worst_violation
        self.detail = detail


def _scan_windows(
    name: str, lhs: Sequence[float], rhs: Sequence[float], slack: float, upper: bool = True
) -> CheckOutcome:
    """Check lhs <= rhs (``upper``) or lhs >= rhs on every window.

    ``slack`` is relative to max(1, |rhs|).  The outcome names the first
    failing window and carries the worst violation seen up to it: the
    largest violation above 0.0, the first of equal ones, NaN never.
    """
    violations = list(map(sub, lhs, rhs) if upper else map(sub, rhs, lhs))
    limits = map(mul, repeat(slack), map(max, repeat(1.0), map(abs, rhs)))
    failed = list(map(gt, violations, limits))
    if not any(failed):
        return CheckOutcome(name, True, max(chain((0.0,), violations)))
    n = failed.index(True)
    worst = max(chain((0.0,), violations[: n + 1]))
    detail = f"window {n + 1}: {lhs[n]} {'>' if upper else '<'} {rhs[n]}"
    return CheckOutcome(name, False, worst, detail)


def _end_to_end(
    outcome: CheckOutcome, z: Sequence[float], strong: SpaceSpec, weak: SpaceSpec,
    tols: Tolerances, labels: tuple, strong_trace: Optional[list] = None,
) -> CheckOutcome:
    """Fail a passed ``outcome`` when x converges under ``strong`` but not
    under ``weak`` (the stronger space lies inside the weaker one);
    ``z`` is x's windowed view under the transform both specs share, and
    ``labels`` name the two verdicts in the detail.  ``strong_trace`` is
    x's window trace under ``strong`` around 0.0 when the caller holds it
    (see :func:`~geoseq.membership._verdict`).  The weak verdict is
    computed only when the strong one converges: otherwise it cannot fail
    the check."""
    if not outcome.passed:
        return outcome
    strong_verdict = _verdict(z, strong, tols, strong_trace)[0]
    if strong_verdict != CONVERGING:
        return outcome
    weak_verdict = _verdict(z, weak, tols)[0]
    if weak_verdict != CONVERGING:
        detail = f"end-to-end: {labels[0]} {strong_verdict} but {labels[1]} {weak_verdict}"
        return CheckOutcome(outcome.name, False, outcome.worst_violation, detail)
    return outcome


def check_linear_combination(
    x: GeoSequence,
    y: GeoSequence,
    a: float,
    b: float,
    spec: SpaceSpec,
    rho1: float,
    rho2: float,
    slack: float = _WINDOW_SLACK,
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
    slack: float = _WINDOW_SLACK,
) -> CheckOutcome:
    """Scalar damping never increases the windowed modular.

    ``y_member`` is an element of the windowed space itself (identity
    view); the scalars must satisfy |ln alpha_k| <= 1, i.e. geometric
    magnitude at most e.  Masks of 0/1 log-views exercise the monotone
    (step-space) consequence.
    """
    return _solidity(
        list(y_member.logs), [alpha.log for alpha in alphas], spec, slack
    )


def _solidity(
    z: Sequence[float], a: Sequence[float], spec: SpaceSpec, slack: float
) -> CheckOutcome:
    """:func:`check_solidity` on the member's log-view ``z`` and the
    scalars' log-views ``a``."""
    if len(a) != len(z):
        raise ValueError("need one scalar per term")
    if max(map(abs, a), default=0.0) > 1.0 + 1e-15:
        i = next(i for i, ai in enumerate(a) if abs(ai) > 1.0 + 1e-15)
        raise ValueError(
            f"scalar {i}: geometric magnitude exceeds e (|log| = {abs(a[i])})"
        )
    scaled = list(map(mul, a, z))
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
    slack: float = _WINDOW_SLACK,
) -> CheckOutcome:
    """Raw windowed summability dominates the Orlicz-modular one.

    Requires M to satisfy the doubling condition (refused otherwise).
    With t_k = |z_k - ln(ell)| / rho and delta chosen so M(t) <= epsilon
    for t <= delta, every window satisfies
        mean M(t_k)  <=  epsilon + K M(2) delta**-1 * mean t_k,
    K the doubling constant.  End to end, a truncation that converges in
    the raw sense must converge in the M-modular sense.
    """
    center = ell.log if ell is not None else 0.0
    z = windowed_logs(x, spec.transform)
    return _delta2_inclusion(z, orlicz, spec, delta, epsilon, center, delta2, tols, slack)


def _delta2_inclusion(
    z: Sequence[float],
    orlicz: OrliczFunction,
    spec: SpaceSpec,
    delta: float,
    epsilon: float,
    center: float,
    delta2: Optional[Delta2Report],
    tols: Tolerances,
    slack: float,
) -> CheckOutcome:
    """:func:`check_delta2_inclusion` on x's windowed view ``z`` under
    ``spec.transform``, around the log-limit ``center``."""
    if delta2 is None:
        delta2 = delta2_constant(orlicz)
    if not delta2.satisfied:
        detail = "refused: the Orlicz function fails the doubling condition"
        return CheckOutcome("delta2_inclusion", False, math.inf, detail)
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if orlicz.eval(delta) > epsilon + 1e-15:
        raise ValueError("delta too large: M(delta) exceeds epsilon")

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
    return _end_to_end(outcome, z, raw_spec, m_spec, tols, labels)


def check_exponent_inclusion(
    x: GeoSequence,
    p: Exponents,
    q: Exponents,
    spec: SpaceSpec,
    tols: Tolerances = Tolerances(),
    slack: float = _WINDOW_SLACK,
) -> CheckOutcome:
    """Larger exponents give the smaller space: q-membership forces p-membership.

    Per window, with t_k = M(|z_k|/rho)**q_k and mu_k = p_k/q_k,
    splitting t at 1 gives
        mean t_k**mu_k  <=  mean t_k + (mean v_k)**mu,
    where v_k = t_k when t_k < 1 (else 0) and mu = inf mu_k, in (0, 1]
    because 0 < p_k <= q_k.  mu has no floor: the split needs
    t_k**mu_k <= t_k**mu for t_k < 1, that is mu <= mu_k.  p and q are
    each read once, over the whole view.  End to end, membership under q
    implies membership under p.
    """
    return _exponent_inclusion(windowed_logs(x, spec.transform), p, q, spec, tols, slack)


def _exponent_inclusion(
    z: Sequence[float], p: Exponents, q: Exponents, spec: SpaceSpec, tols: Tolerances,
    slack: float,
) -> CheckOutcome:
    """:func:`check_exponent_inclusion` on x's windowed view ``z`` under
    ``spec.transform``."""
    ks = range(1, len(z) + 1)
    ps, qs = p._over(ks), q._over(ks)
    for k, pk, qk in zip(ks, ps, qs):
        if not (0.0 < pk <= qk):
            raise ValueError(f"need 0 < p <= q at every index; index {k}: {pk} > {qk}")
    mus = list(map(truediv, ps, qs))
    mu = min(mus)

    lam, M, rho = spec.lam, spec.orlicz, spec.rho
    t = _modular_terms(z, qs, M, rho, 0.0)
    lhs = _window_means([tk ** mu_k for tk, mu_k in zip(t, mus)], lam)
    t_means = _window_means(t, lam)
    v_means = _window_means([tk if tk < 1.0 else 0.0 for tk in t], lam)
    rhs = [tm + vm ** mu for tm, vm in zip(t_means, v_means)]
    outcome = _scan_windows("exponent_inclusion", lhs, rhs, slack)
    q_spec, p_spec = replace(spec, exponents=q), replace(spec, exponents=p)
    # t_means is the q-space trace around 0.0, the one the q-verdict reads
    # unless the limit variant centres it elsewhere
    held = None if spec.variant == "limit" else t_means
    labels = ("q-verdict", "p-verdict")
    return _end_to_end(outcome, z, q_spec, p_spec, tols, labels, held)


class SuiteCheck(Record):
    """Aggregate of one named check across all trials."""

    __slots__ = ("name", "trials", "failures", "worst_violation", "skipped", "first_failure")

    def __init__(
        self,
        name: str,
        trials: int,
        failures: int,
        worst_violation: float,
        skipped: Optional[str] = None,
        first_failure: Optional[str] = None,
    ):
        self.name = name
        self.trials = trials
        self.failures = failures
        self.worst_violation = worst_violation
        self.skipped = skipped
        self.first_failure = first_failure

    @property
    def passed(self) -> bool:
        return self.failures == 0


# the members of one suite row, in the order of its tuple in SuiteReport.rows
_SUITE_ROW = ("check", "trial", "passed", "worst_violation")


class SuiteReport(Record):
    """Deterministic aggregate of a full suite run; ``rows`` holds
    :data:`_SUITE_ROW` tuples."""

    __slots__ = ("config", "checks", "rows")

    def __init__(self, config: dict, checks: list, rows: list):
        self.config = config
        self.checks = checks
        self.rows = rows

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
        "rows": [dict(zip(_SUITE_ROW, row)) for row in report.rows],
    }


class _ParentGone(Exception):
    """The process a worker was forked from has exited."""


def _outcomes(fns: Sequence, lo: int, hi: int, parent: Optional[int] = None) -> list:
    """(passed, worst_violation, detail) of trials lo..hi-1, one list per check.

    A trial that raised has worst_violation None and its error as detail.
    A forked worker passes ``parent``, the pid it was forked from, and
    stops before its next trial once its parent pid is another
    (:class:`_ParentGone`): its parent has exited, and nobody reads it.
    """
    out = []
    for fn in fns:
        row = []
        for trial in range(lo, hi):
            if parent is not None and os.getppid() != parent:
                raise _ParentGone(f"parent {parent} has exited")
            try:
                outcome = fn(trial)
            except Exception as exc:  # collected, not fatal
                row.append((False, None, str(exc)))
                continue
            row.append((outcome.passed, outcome.worst_violation, outcome.detail))
        out.append(row)
    return out


# where the cgroup CPU quota is read (see _cpu_quota)
_CGROUP = "/sys/fs/cgroup"


def _read_ints(path: str) -> Optional[list]:
    """The whitespace-separated integers of a file, "max" as -1; None when
    the file cannot be read or holds anything else."""
    try:
        with open(path) as f:
            words = f.read().split()
        return [-1 if w == "max" else int(w) for w in words]
    except (OSError, ValueError):
        return None


def _cpu_quota() -> Optional[int]:
    """CPUs the cgroup CPU quota of this process allows, ceil(quota /
    period), or None without a quota.

    Read from cgroup v2 ``cpu.max`` ("quota period", quota "max" for
    none), else from cgroup v1 ``cpu/cpu.cfs_quota_us`` (-1 for none) and
    ``cpu/cpu.cfs_period_us``, under :data:`_CGROUP`.
    """
    pair = _read_ints(os.path.join(_CGROUP, "cpu.max"))
    if pair is None:
        v1 = os.path.join(_CGROUP, "cpu")
        quota = _read_ints(os.path.join(v1, "cpu.cfs_quota_us"))
        period = _read_ints(os.path.join(v1, "cpu.cfs_period_us"))
        pair = quota + period if quota is not None and period is not None else None
    if pair is None or len(pair) != 2:
        return None
    quota, period = pair
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _worker_count(config: TrialConfig) -> int:
    """One process per CPU this one may run on, at most one per trial.

    The CPUs are those of the affinity mask, and no more than the cgroup
    CPU quota allows (:func:`_cpu_quota`).  One, and no fork, without
    ``os.fork`` or ``os.sched_getaffinity``, in a threaded process, or
    when the space's lambda, Orlicz function or exponents are subclasses:
    a subclass may keep state of its calls (counters, caches), and a
    child's calls would not reach this process.
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
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, min(cpus, config.trials))


def _fork_slice(fns: Sequence, lo: int, hi: int, readers: Sequence):
    """(pid, read end) of a child that sends back ``_outcomes(fns, lo, hi)``
    marshalled, or (None, None) when no child can be forked.

    ``readers`` are the read ends of the earlier children's pipes; the
    child closes its copies, so each pipe's only reader is this process.
    """
    r, w = os.pipe()
    parent = os.getpid()
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
            data = memoryview(marshal.dumps(_outcomes(fns, lo, hi, parent)))
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


# M(delta) <= epsilon below the doubling check's small-argument threshold
_D2_EPSILON = 0.1


class _Suite(Record):
    """What the trials of one suite run read, built once from its
    :class:`TrialConfig`: each check's derived spaces and exponent
    profiles, the doubling report, the small-argument threshold ``delta``
    (NaN, with the reason in ``no_delta``, when there is none), and the
    reasons to skip the doubling and consistency checks (None to run)."""

    __slots__ = (
        "seed", "length", "spec", "tols", "unit", "linear_specs", "solidity_spec",
        "limit_spec", "exponent_qs", "density_spec", "epsilons", "d2_report", "delta",
        "no_delta", "no_doubling", "too_short",
    )

    def __init__(self, config: TrialConfig):
        self.seed, self.length, self.tols = config.seed, config.length, config.tolerances
        spec = self.spec = config.spec
        unit = self.unit = Exponents.constant(1.0)
        self.linear_specs = [  # p(k) = 1, 1.5 and the mixed 1 + 1/k, in turn
            replace(spec, exponents=p)
            for p in (unit, Exponents.constant(1.5), Exponents.formula(1.0, 1.0))
        ]
        # solidity draws vanishing members; its bound reads no variant
        self.solidity_spec = replace(spec, transform="identity", variant="zero")
        self.limit_spec = replace(spec, variant="limit")
        # q(k) = 2, and q(k) = p(k) + 1/k, against p(k) = 1
        self.exponent_qs = [Exponents.constant(2.0), Exponents.formula(1.0, 1.0)]
        # the space of both statistical checks: stat_density windows the fhat view
        self.density_spec = replace(spec, exponents=unit, variant="limit", transform="fhat")
        self.epsilons = [(eps_log, GeoScalar.from_log(eps_log)) for eps_log in (0.1, 1.0, 2.0)]

        self.d2_report, self.delta, self.no_delta, self.no_doubling = None, math.nan, None, None
        try:
            self.d2_report = delta2_constant(spec.orlicz)
            if not self.d2_report.satisfied:
                self.no_doubling = (
                    "skipped: the configured Orlicz function fails the doubling condition"
                )
        except Exception as exc:
            self.no_doubling = f"skipped: {exc}"
        if self.no_doubling is None:
            try:  # one value for all trials; without one, each trial fails
                self.delta = small_argument_threshold(spec.orlicz, _D2_EPSILON)
            except DegenerateOrliczError as exc:
                self.no_delta = str(exc)
        # every consistency member has N - 1 fhat windows; too few, and the
        # membership verdict can only answer inconclusive
        short = _short_truncation(config.length - 1, self.tols)
        self.too_short = None if short is None else f"skipped: {short}"


def _linear_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """Convexity of M, then |s + t|**p <= B (|s|**p + |t|**p) for p <= H (Maddox 1967)."""
    N, rand = suite.length, _rng(suite.seed, "linear_combination", trial).random
    x = GeoSequence.from_log([-5.0 + 10.0 * rand() for _ in range(N)])  # uniform(-5, 5)
    y = GeoSequence.from_log([-5.0 + 10.0 * rand() for _ in range(N)])
    a = -3.0 + 6.0 * rand()  # uniform(-3, 3)
    b = -3.0 + 6.0 * rand()
    rho1 = 0.5 + 1.5 * rand()  # uniform(0.5, 2)
    rho2 = 0.5 + 1.5 * rand()
    return check_linear_combination(x, y, a, b, suite.linear_specs[trial % 3], rho1, rho2)


def _solidity_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """M is non-decreasing and |a_k z_k| <= |z_k|, so no term of the modular grows."""
    rng, spec = _rng(suite.seed, "solidity", trial), suite.solidity_spec
    _, z = _generate(spec, suite.seed, suite.length, "solidity_member", trial)
    if trial % 2 == 0:
        rand = rng.random
        alphas = [-1.0 + 2.0 * rand() for _ in z]  # uniform(-1, 1)
    else:
        # 0/1 mask in log-view: the step-space (monotone) consequence
        alphas = list(map(float, _bits(rng, len(z))))  # randint(0, 1)
    return _solidity(z, alphas, spec, _WINDOW_SLACK)


def _delta2_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """M(t) <= eps up to delta, M(t) <= K M(2) t / delta beyond (Maddox 1986; false for t >> 1)."""
    sample, z = _generate(suite.limit_spec, suite.seed, suite.length, "delta2_member", trial)
    if suite.no_delta is not None:
        raise DegenerateOrliczError(suite.no_delta)
    return _delta2_inclusion(
        z, suite.spec.orlicz, suite.limit_spec, suite.delta, _D2_EPSILON, sample.ell.log,
        suite.d2_report, suite.tols, _WINDOW_SLACK,
    )


def _exponent_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """t**mu_k <= t for t >= 1; below 1, t**mu_k <= t**mu, and Jensen for the concave t**mu."""
    # a member of the q-space: the draw reads only the spec's variant and transform
    _, z = _generate(suite.spec, suite.seed, suite.length, "exponent_member", trial)
    q = suite.exponent_qs[trial % 2]
    return _exponent_inclusion(z, suite.unit, q, suite.spec, suite.tols, _WINDOW_SLACK)


def _density_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """Chebyshev: M(|t_k|/rho) >= M(eps/rho) where |t_k| >= eps, and >= 0 elsewhere."""
    spec, rand = suite.spec, _rng(suite.seed, "density_bound", trial).random
    x = GeoSequence.from_log([-3.0 + 6.0 * rand() for _ in range(suite.length)])  # uniform(-3, 3)
    ell = GeoScalar.from_log(-1.0 + 2.0 * rand())  # uniform(-1, 1)
    epsilon = GeoScalar.from_log(0.1 + (2.0 - 0.1) * rand())  # uniform(0.1, 2)
    # statconv.modular_density_bound on every window at once, on one fhat view
    z = windowed_logs(x, "fhat")
    lhs = modular_trace(z, spec.lam, spec.orlicz, suite.unit, spec.rho, ell.log)
    m_eps = spec.orlicz.eval(epsilon.log / spec.rho)
    rhs = [m_eps * d for d in _density(z, spec.lam, ell, epsilon).densities]
    return _scan_windows("density_bound", lhs, rhs, _WINDOW_SLACK, upper=False)


def _consistency_trial(suite: _Suite, trial: int) -> CheckOutcome:
    """Strong summability implies statistical convergence to the same limit (Connor 1988)."""
    density_spec, tols = suite.density_spec, suite.tols
    _, z = _generate(density_spec, suite.seed, suite.length, "consistency_member", trial)
    verdict, center, _, _ = _verdict(z, density_spec, tols)
    if verdict != CONVERGING:
        detail = f"generated member classified {verdict}"
        return CheckOutcome("stat_consistency", False, math.inf, detail)
    ell = GeoScalar.from_log(center)
    for eps_log, epsilon in suite.epsilons:
        verdict = stat_converges(_density(z, suite.spec.lam, ell, epsilon), tols)
        if verdict != CONVERGING:
            detail = f"density verdict {verdict} at ln eps = {eps_log}"
            return CheckOutcome("stat_consistency", False, math.inf, detail)
    return CheckOutcome("stat_consistency", True, 0.0)


# one entry of _CHECKS: the check's name, the _Suite slot holding its reason
# to skip (None: never skipped), and its trial function (suite, trial) -> outcome
_Check = namedtuple("_Check", ("name", "skip", "trial"))


# every check of the suite, in report order
_CHECKS = (
    _Check("linear_combination", None, _linear_trial),
    _Check("solidity", None, _solidity_trial),
    _Check("delta2_inclusion", "no_doubling", _delta2_trial),
    _Check("exponent_inclusion", None, _exponent_trial),
    _Check("density_bound", None, _density_trial),
    _Check("stat_consistency", "too_short", _consistency_trial),
)


def run_suite(config: TrialConfig) -> SuiteReport:
    """Run every check of :data:`_CHECKS` under one seed.

    A :class:`_Suite` holds what the trials read, built once.  Individual
    trial errors are recorded as failures, not raised; an unsatisfied
    doubling condition, or a truncation too short for the consistency
    check's verdict, skips that check with a reason.  The trials are
    split over the CPUs (see ``_worker_count`` and ``_run_trials``); two
    runs of an identical configuration produce identical reports.
    """
    suite = _Suite(config)
    skips = [entry.skip and getattr(suite, entry.skip) for entry in _CHECKS]
    fns = [partial(entry.trial, suite) for entry, skip in zip(_CHECKS, skips) if skip is None]
    outcomes = iter(_run_trials(fns, config.trials, _worker_count(config)))
    checks, rows = [], []
    for (name, _, _), skip in zip(_CHECKS, skips):
        if skip is not None:
            checks.append(SuiteCheck(name, 0, 0, 0.0, skip, None))
            continue
        failures, worst, first = 0, 0.0, None
        for trial, (passed, violation, detail) in enumerate(next(outcomes)):
            if violation is None:  # the trial raised
                violation = math.inf
            elif violation > worst:
                worst = violation
            rows.append((name, trial, passed, violation))
            if not passed:
                failures += 1
                if first is None:
                    first = f"trial {trial}: {detail}"
        checks.append(SuiteCheck(name, config.trials, failures, worst, None, first))

    return SuiteReport(config=config.describe(), checks=checks, rows=rows)
