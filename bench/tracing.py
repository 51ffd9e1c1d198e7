"""Traced in-process replay: time and count each geoseq layer from outside.

Each command of a workload is replayed by calling the same public
functions the CLI calls, with a span around every call into a module.
Orlicz evaluations and window sums are counted by subclasses of
``OrliczFunction`` and ``LambdaSequence`` that are passed in through the
``SpaceSpec``, so nothing inside ``src/`` is instrumented.  The replay
adds a few reference calls the CLI does not make (``window_trace`` per
input, a zero-variant ``classify_membership`` beside each limit-variant
one, the log transform on a cold cache); their spans are named apart so
they never inflate the CLI-path spans, but their Orlicz evaluations and
windows are counted with the rest of the pass.

Importing this module imports geoseq, so put ``src`` on ``sys.path``
first.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from geoseq.fibonacci import FibonacciCache, difference_transform, difference_transform_log
from geoseq.fileio import (
    density_report_dict,
    emit_report,
    load_config,
    parse_sequence_file,
    write_sequence_file,
)
from geoseq.geometric import GeoScalar, GeoSequence
from geoseq.harness import (
    TrialConfig,
    check_delta2_inclusion,
    check_exponent_inclusion,
    check_linear_combination,
    check_solidity,
    generate_member,
    run_suite,
)
from geoseq.orlicz import OrliczFunction, delta2_constant, small_argument_threshold
from geoseq.statconv import modular_density_bound, stat_converges, stat_density
from geoseq.summability import (
    CONVERGING,
    Exponents,
    LambdaSequence,
    classify_membership,
    paranorm,
    window_trace,
    windowed_logs,
)

# per-layer time metrics, each the summed span time of one traced pass
TIMES = (
    "summability.trace_s", "summability.classify_s", "summability.limit_s",
    "summability.paranorm_s",
    "fibonacci.log_transform_s", "fibonacci.geo_transform_s",
    "statconv.density_s", "statconv.verdict_s", "statconv.bound_s",
    "harness.generate_s", "harness.linear_s", "harness.solidity_s", "harness.delta2_s",
    "harness.exponent_s", "harness.density_s", "harness.consistency_s", "harness.suite_s",
    "fileio.parse_s", "fileio.emit_s", "fileio.write_s",
    "geometric.from_log_s",
)
# log-log slope of a span's time over input size m
EXPONENTS = {
    "summability.trace_exp": "summability.trace_s",
    "summability.paranorm_exp": "summability.paranorm_s",
    "fibonacci.transform_exp": "fibonacci.log_transform_s",
    "statconv.density_exp": "statconv.density_s",
}
# deterministic counts: the same code and seed must reproduce them exactly
COUNTS = ("orlicz.evals", "summability.windows", "summability.terms", "fileio.report_bytes")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = Counter()
        self.by_size = defaultdict(lambda: defaultdict(float))
        self.counts = Counter({name: 0 for name in COUNTS})

    def add(self, name: str, dt: float, size=None) -> None:
        self.time[name] += dt
        self.calls[name] += 1
        if size is not None:
            self.by_size[name][size] += dt

    def span(self, name: str, size=None) -> "_Span":
        return _Span(self, name, size)


class _Span:
    def __init__(self, tracer, name, size):
        self.tracer, self.name, self.size = tracer, name, size
        self.dt = 0.0

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.dt = perf_counter() - self.t0
        self.tracer.add(self.name, self.dt, self.size)
        return False


@dataclass(frozen=True)
class CountingOrlicz(OrliczFunction):
    """OrliczFunction that counts its evaluations."""

    counts: Counter = field(default=None, compare=False, repr=False)

    def eval(self, t: float) -> float:
        self.counts["orlicz.evals"] += 1
        return OrliczFunction.eval(self, t)

    __call__ = eval


class CountingLambda(LambdaSequence):
    """LambdaSequence that counts the windows it hands out and their terms."""

    def __init__(self, base: LambdaSequence, counts: Counter):
        super().__init__(base.kind, base.values)
        self.counts = counts

    def window(self, n: int) -> range:
        w = LambdaSequence.window(self, n)
        self.counts["summability.windows"] += 1
        self.counts["summability.terms"] += len(w)
        return w


def _load_config(path: Path, tr: Tracer):
    """load_config, with the counting lambda and Orlicz function swapped in."""
    cfg = load_config(path)
    cfg.lam = CountingLambda(cfg.lam, tr.counts)
    o = cfg.orlicz
    cfg.orlicz = CountingOrlicz(o.kind, o.p, o.points, counts=tr.counts)
    return cfg


def _read_sequence(cmd, work: Path, tr: Tracer, fhat: bool = False):
    """Parse the input; time from_log and, for an fhat consumer, the log transform."""
    with tr.span("fileio.parse_s"):
        x = parse_sequence_file(work / f"{cmd.seq}.json")
    logs = x.to_log()
    with tr.span("geometric.from_log_s"):
        GeoSequence.from_log(logs)
    if fhat:
        # a fresh cache, as each CLI process starts with one
        with tr.span("fibonacci.log_transform_s", cmd.size):
            difference_transform_log(logs, FibonacciCache())
    return x


def _emit(report, cmd, tr: Tracer) -> bytes:
    with tr.span("fileio.emit_s"):
        data = emit_report(report, cmd.fmt)
    tr.counts["fileio.report_bytes"] += len(data)
    return data


def _analyze(cmd, work, out, tr) -> bytes:
    with tr.span("fileio.parse_s"):
        cfg = _load_config(work / f"{cmd.config}.json", tr)
    x = _read_sequence(cmd, work, tr, fhat=cfg.transform == "fhat")
    spec = cfg.space_spec()
    with tr.span("summability.trace_s", cmd.size):
        window_trace(x, spec)
    with tr.span("summability.classify_s") as with_limit:
        report = classify_membership(x, spec, cfg.tolerances)
    if spec.variant == "limit":
        _limit_share(x, spec, cfg.tolerances, with_limit.dt, tr)
    return _emit(report, cmd, tr)


def _limit_share(x, spec, tols, dt_limit: float, tr: Tracer) -> None:
    """summability.limit_s, derived: classify(limit) - classify(zero) on one input."""
    with tr.span("summability.classify_zero_s") as zero:
        classify_membership(x, replace(spec, variant="zero"), tols)
    tr.add("summability.limit_s", dt_limit - zero.dt)


def _stat(cmd, work, out, tr) -> bytes:
    x = _read_sequence(cmd, work, tr, fhat=True)
    with tr.span("fileio.parse_s"):
        cfg = _load_config(work / f"{cmd.config}.json", tr)
    with tr.span("statconv.density_s", cmd.size):
        trace = stat_density(x, cfg.lam, GeoScalar(cmd.ell), GeoScalar(cmd.epsilon))
    with tr.span("statconv.verdict_s"):
        verdict = stat_converges(trace, cfg.tolerances)
    return _emit(density_report_dict(trace, verdict), cmd, tr)


def _paranorm(cmd, work, out, tr) -> bytes:
    with tr.span("fileio.parse_s"):
        cfg = _load_config(work / f"{cmd.config}.json", tr)
    x = _read_sequence(cmd, work, tr, fhat=cfg.transform == "fhat")
    with tr.span("summability.paranorm_s", cmd.size):
        result = paranorm(x, cfg.space_spec())
    return _emit(result, cmd, tr)


def _transform(cmd, work, out, tr) -> bytes:
    x = _read_sequence(cmd, work, tr)
    with tr.span("fibonacci.geo_transform_s"):
        y = difference_transform(x, FibonacciCache())
    domain = "geometric" if cmd.fmt == "geo" else "log"
    metadata = {"transform": "fibonacci-difference"}
    if not y.in_value_range:
        metadata["value_view"] = "saturated; log view is authoritative"
    with tr.span("fileio.write_s"):
        write_sequence_file(y, out, domain=domain, metadata=metadata)
    return out.read_bytes()


def _verify(cmd, work, out, tr) -> bytes:
    with tr.span("fileio.parse_s"):
        cfg = _load_config(work / f"{cmd.config}.json", tr)
    config = cfg.trial_config(length=cmd.size)
    with tr.span("harness.suite_s"):
        report = run_suite(config)
    _rebuild_checks(config, tr)
    return _emit(report, cmd, tr)


def _draw(seed, check: str, trial: int) -> random.Random:
    # run_suite's documented substream rule: one generator per (seed, check, trial)
    return random.Random(f"{seed}:{check}:{trial}")


def _rebuild_checks(config: TrialConfig, tr: Tracer) -> None:
    """Time generate_member and each check on the inputs run_suite builds.

    The density-bound and consistency checks are inline in run_suite; they
    are rebuilt here from the public calls they make.
    """
    spec, N, slack, tols = config.spec, config.length, config.slack, config.tolerances
    profiles = [Exponents.constant(1.0), Exponents.constant(1.5), Exponents.formula(1.0, 1.0)]
    d2 = delta2_constant(spec.orlicz)
    delta = small_argument_threshold(spec.orlicz, 0.1) if d2.satisfied else None
    limit_spec = replace(spec, variant="limit")

    def member(check_spec, name, trial):
        with tr.span("harness.generate_s"):
            return generate_member(check_spec, config.seed, N, name, trial)

    for trial in range(config.trials):
        rng = _draw(config.seed, "linear_combination", trial)
        x = GeoSequence.from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        y = GeoSequence.from_log([rng.uniform(-5.0, 5.0) for _ in range(N)])
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        rho1, rho2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        p = replace(spec, exponents=profiles[trial % len(profiles)])
        with tr.span("harness.linear_s"):
            check_linear_combination(x, y, a, b, p, rho1, rho2, slack)

    for trial in range(config.trials):
        rng = _draw(config.seed, "solidity", trial)
        sample = member(replace(spec, transform="identity", variant="zero"),
                        "solidity_member", trial)
        n_terms = len(sample.sequence)
        if trial % 2 == 0:
            alphas = [GeoScalar.from_log(rng.uniform(-1.0, 1.0)) for _ in range(n_terms)]
        else:
            alphas = [GeoScalar.from_log(float(rng.randint(0, 1))) for _ in range(n_terms)]
        with tr.span("harness.solidity_s"):
            check_solidity(sample.sequence, alphas, replace(spec, transform="identity"), slack)

    if d2.satisfied:
        for trial in range(config.trials):
            sample = member(limit_spec, "delta2_member", trial)
            with tr.span("harness.delta2_s"):
                check_delta2_inclusion(sample.sequence, spec.orlicz, limit_spec, delta, 0.1,
                                       ell=sample.ell, delta2=d2, tols=tols, slack=slack)

    for trial in range(config.trials):
        p = Exponents.constant(1.0)
        q = Exponents.constant(2.0) if trial % 2 == 0 else Exponents.formula(1.0, 1.0)
        sample = member(replace(spec, exponents=q), "exponent_member", trial)
        with tr.span("harness.exponent_s"):
            check_exponent_inclusion(sample.sequence, p, q, spec, tols=tols, slack=slack)

    for trial in range(config.trials):
        rng = _draw(config.seed, "density_bound", trial)
        with tr.span("harness.density_s"):
            x = GeoSequence.from_log([rng.uniform(-3.0, 3.0) for _ in range(N)])
            ell = GeoScalar.from_log(rng.uniform(-1.0, 1.0))
            epsilon = GeoScalar.from_log(rng.uniform(0.1, 2.0))
            for n in range(1, len(windowed_logs(x, "fhat")) + 1):
                with tr.span("statconv.bound_s"):
                    modular_density_bound(x, spec, ell, epsilon, n)

    m_spec = replace(spec, variant="limit", exponents=Exponents.constant(1.0))
    for trial in range(config.trials):
        sample = member(limit_spec, "consistency_member", trial)
        with tr.span("harness.consistency_s"):
            with tr.span("summability.classify_s") as with_limit:
                report = classify_membership(sample.sequence, m_spec, tols)
            if report.verdict == CONVERGING:
                for eps_log in (0.1, 1.0, 2.0):
                    with tr.span("statconv.density_s", N):
                        trace = stat_density(sample.sequence, spec.lam, report.limit_estimate,
                                             GeoScalar.from_log(eps_log))
                    with tr.span("statconv.verdict_s"):
                        stat_converges(trace, tols)
        with tr.span("summability.trace_s", N):
            window_trace(sample.sequence, m_spec)
        _limit_share(sample.sequence, m_spec, tols, with_limit.dt, tr)


REPLAY = {
    "analyze": _analyze,
    "stat": _stat,
    "paranorm": _paranorm,
    "transform": _transform,
    "verify": _verify,
}


def replay(commands, work: Path, tr: Tracer) -> list:
    """Replay every command in process; returns (output bytes or None, error) per command."""
    outputs = []
    (work / "trace").mkdir(exist_ok=True)
    for i, cmd in enumerate(commands):
        out = work / "trace" / f"{i}.out"
        try:
            outputs.append((REPLAY[cmd.kind](cmd, work, out, tr), None))
        except Exception as exc:  # a failing command is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
    return outputs


def slope(by_size: dict) -> float:
    """Least-squares slope of log time over log size (at least two sizes)."""
    xs = [math.log(s) for s in by_size]
    ys = [math.log(t) for t in by_size.values()]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(passes: list, sweeps: list) -> tuple:
    """(metrics, notes): medians over the passes; sweep passes fill in unused layers.

    ``notes`` names, per metric, where the number came from and, for a
    fitted exponent, the sizes it was fitted over.
    """
    metrics, notes = {}, {}
    for name in TIMES:
        source = passes if passes[0].calls[name] else sweeps
        metrics[name] = (statistics.median(p.time[name] for p in source), "s")
        notes[name] = "mix" if source is passes else "sweep"
    for name, span in EXPONENTS.items():
        source = passes if len(passes[0].by_size[span]) >= 2 else sweeps
        sizes = sorted(source[0].by_size[span])
        medians = {s: statistics.median(p.by_size[span][s] for p in source) for s in sizes}
        metrics[name] = (slope(medians), "slope")
        notes[name] = f"{'mix' if source is passes else 'sweep'}, m = {sizes}"
    for name in COUNTS:
        metrics[name] = (passes[0].counts[name], "count")
        notes[name] = "mix"
    return metrics, notes
