"""Workload definitions: seeded inputs and the fixed command mix of each.

Every workload is a list of ``geoseq`` CLI commands over sequence and
configuration files that are generated here from the workload seed.  The
program only ever sees those files.  Why each workload exists is written
down in ``bench/README.md``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The first window I(1) = {1} of a paranorm input holds a single term of
# this magnitude and every other term is at most 0.9 times it, so the
# supremum of the window modulars sits at n = 1 and rho* = A / M^-1(1) for
# every seed.  The solver bracket, and with it the probe count and
# ``orlicz.evals``, is therefore the same for every seed.  A is not dyadic,
# so no bisection midpoint lands on rho* exactly and the oracle sees the
# solver's tolerance.
PARANORM_PIN = 2.7

# piecewise-linear Orlicz table with M(1) = 1 (convex: slopes 0.4, 1.6, 2.5, 3.25)
TABLE_POINTS = [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0], [2.0, 3.5], [4.0, 10.0]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  Files are named by stem inside the work directory."""

    kind: str          # analyze | stat | paranorm | transform | verify
    size: int          # length m of the input sequence, or the verify length
    config: str = ""   # config stem (every kind but transform)
    seq: str = ""      # sequence stem (every kind but verify)
    fmt: str = "text"  # report format; for transform the output domain (log | geo)
    epsilon: float = 0.0  # stat only: geometric threshold and limit candidate
    ell: float = 0.0

    def argv(self, work: Path, out: Path) -> list:
        """Arguments after ``python -m geoseq``.  Reports go to stdout."""
        if self.kind == "transform":
            return ["transform", "--in", str(work / f"{self.seq}.json"),
                    "--out", str(out), "--domain", self.fmt]
        args = [self.kind]
        if self.seq:
            args += ["--in", str(work / f"{self.seq}.json")]
        args += ["--config", str(work / f"{self.config}.json")]
        if self.kind == "stat":
            args += ["--epsilon", repr(self.epsilon), "--ell", repr(self.ell)]
        if self.kind == "verify":
            args += ["--length", str(self.size)]
        return args + ["--format", self.fmt]

    def label(self) -> str:
        return f"{self.kind}:{self.seq or self.config}:{self.fmt}"


@dataclass
class Workload:
    sequences: dict = field(default_factory=dict)  # stem -> log-view values
    configs: dict = field(default_factory=dict)    # stem -> config document
    commands: list = field(default_factory=list)

    def write_inputs(self, work: Path) -> None:
        for stem, values in self.sequences.items():
            doc = {"domain": "log", "values": values}
            (work / f"{stem}.json").write_text(json.dumps(doc))
        for stem, doc in self.configs.items():
            (work / f"{stem}.json").write_text(json.dumps(doc))


def _decay(rng, m):
    # slow enough that level + decay never rounds to a constant tail, which
    # would let the limit estimator skip its search and make counts seed-dependent
    amp, rate = rng.uniform(0.5, 1.5), rng.uniform(0.99, 0.999)
    return [rng.choice((-1.0, 1.0)) * amp * rate ** k for k in range(m)]


def _level(rng, m):
    level = rng.uniform(-2.0, 2.0)
    return [level + v for v in _decay(rng, m)]


def _noise(rng, m):
    return [rng.uniform(-2.0, 2.0) for _ in range(m)]


def _pinned_noise(rng, m):
    bound = 0.9 * PARANORM_PIN
    return [rng.choice((-1.0, 1.0)) * PARANORM_PIN] + [
        rng.uniform(-bound, bound) for _ in range(m - 1)
    ]


def _stat_args(rng):
    return {"epsilon": math.exp(rng.uniform(0.5, 1.5)), "ell": math.exp(rng.uniform(-0.5, 0.5))}


def _round_robin(commands):
    """Interleave command kinds so no kind runs as one block within a pass."""
    by_kind: dict = {}
    for cmd in commands:
        by_kind.setdefault(cmd.kind, []).append(cmd)
    queues = list(by_kind.values())
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def _lam(kind):
    return {"kind": kind}


def _power(p):
    return {"kind": "power", "p": p}


def long_trace(rng) -> Workload:
    wl = Workload()
    wl.configs = {
        "cfg-zero": {"lambda": _lam("identity"), "orlicz": _power(1.0), "variant": "zero"},
        "cfg-limit": {"lambda": _lam("half"), "orlicz": _power(2.0), "variant": "limit"},
        "cfg-bounded": {"lambda": _lam("identity"), "orlicz": {"kind": "x_log1p"},
                        "variant": "bounded"},
        "cfg-stat": {"lambda": _lam("half")},
    }
    cmds = []
    for m in (500, 1000, 2000):
        wl.sequences[f"decay-{m}"] = _decay(rng, m)
        wl.sequences[f"level-{m}"] = _level(rng, m)
        wl.sequences[f"noise-{m}"] = _noise(rng, m)
        cmds += [
            Command("analyze", m, "cfg-zero", f"decay-{m}", "json"),
            Command("analyze", m, "cfg-limit", f"level-{m}", "text"),
            Command("analyze", m, "cfg-bounded", f"noise-{m}", "csv"),
            Command("stat", m, "cfg-stat", f"noise-{m}", "text", **_stat_args(rng)),
        ]
    wl.commands = _round_robin(cmds)
    return wl


def paranorm_solve(rng) -> Workload:
    wl = Workload()
    orlicz = {"p1": _power(1.0), "p2": _power(2.0), "xlog": {"kind": "x_log1p"},
              "table": {"kind": "table", "points": TABLE_POINTS}}
    exponents = {"c1": {"kind": "constant", "value": 1.0},
                 "c2": {"kind": "constant", "value": 2.0},
                 "f11": {"kind": "formula", "c": 1.0, "d": 1.0},
                 "f105": {"kind": "formula", "c": 1.0, "d": 0.5}}
    plan = [  # (m, windows, Orlicz, exponents, format)
        (400, "half", "p2", "c1", "text"),
        (400, "sqrt", "p1", "c2", "json"),
        (400, "half", "xlog", "f11", "csv"),
        (400, "sqrt", "table", "c1", "text"),
        (200, "half", "p1", "c1", "json"),
        (200, "sqrt", "p2", "f105", "csv"),
        (200, "half", "table", "f11", "text"),
        (200, "sqrt", "xlog", "c1", "json"),
    ]
    for i, (m, lam, o, e, fmt) in enumerate(plan):
        stem = f"{lam}-{o}-{e}-{m}"
        wl.configs[f"cfg-{stem}"] = {"lambda": _lam(lam), "orlicz": orlicz[o],
                                     "exponents": exponents[e], "transform": "identity"}
        wl.sequences[f"pin-{i}-{m}"] = _pinned_noise(rng, m)
        wl.commands.append(Command("paranorm", m, f"cfg-{stem}", f"pin-{i}-{m}", fmt))
    return wl


def verify_suite(rng) -> Workload:
    wl = Workload()
    for orlicz, fmt in ((_power(2.0), "text"), ({"kind": "x_log1p"}, "json"),
                        ({"kind": "exp_minus_one"}, "csv")):
        stem = f"cfg-{orlicz['kind']}"
        wl.configs[stem] = {"lambda": _lam("half"), "orlicz": orlicz,
                            "seed": rng.randrange(2 ** 31), "trials": 100}
        wl.commands.append(Command("verify", 56, stem, fmt=fmt))
    return wl


def sqrt_long(rng) -> Workload:
    wl = Workload()
    wl.configs = {
        "cfg-analyze": {"lambda": _lam("sqrt"), "orlicz": {"kind": "x_log1p"}},
        "cfg-stat": {"lambda": _lam("sqrt")},
    }
    cmds = []
    for m, domain in ((16000, "log"), (32000, "geo")):
        wl.sequences[f"noise-{m}"] = _noise(rng, m)
        cmds += [
            Command("transform", m, seq=f"noise-{m}", fmt=domain),
            Command("analyze", m, "cfg-analyze", f"noise-{m}", "csv"),
            Command("stat", m, "cfg-stat", f"noise-{m}", "text", **_stat_args(rng)),
        ]
    wl.commands = _round_robin(cmds)
    return wl


def sweep(rng) -> Workload:
    """Every layer at two small sizes, for layers a workload's mix leaves out.

    The traced run falls back to these numbers only for a layer that the
    workload's own mix never calls, so every per-layer metric is measured
    on every workload.
    """
    wl = Workload()
    wl.configs = {
        "cfg-limit": {"lambda": _lam("half"), "orlicz": _power(2.0), "variant": "limit"},
        "cfg-paranorm": {"lambda": _lam("half"), "orlicz": _power(2.0),
                         "transform": "identity"},
        "cfg-verify": {"lambda": _lam("half"), "orlicz": _power(2.0),
                       "seed": rng.randrange(2 ** 31), "trials": 2},
    }
    for m in (48, 96):
        wl.sequences[f"noise-{m}"] = _noise(rng, m)
        wl.sequences[f"pin-{m}"] = _pinned_noise(rng, m)
        wl.commands += [
            Command("analyze", m, "cfg-limit", f"noise-{m}", "json"),
            Command("stat", m, "cfg-limit", f"noise-{m}", "json", **_stat_args(rng)),
            Command("paranorm", m, "cfg-paranorm", f"pin-{m}", "json"),
            Command("transform", m, seq=f"noise-{m}", fmt="log"),
            Command("verify", m, "cfg-verify", fmt="json"),
        ]
    return wl


WORKLOADS = {
    "long-trace": long_trace,
    "paranorm-solve": paranorm_solve,
    "verify-suite": verify_suite,
    "sqrt-long": sqrt_long,
}


def build(name: str, seed: int) -> Workload:
    """The named workload's inputs and commands; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def build_sweep(seed: int) -> Workload:
    return sweep(random.Random(f"sweep:{seed}"))
