#!/usr/bin/env python3
"""geoseq benchmark: whole CLI commands end to end, and each layer traced.

Run from the repository root:

    python3 bench/run.py --workload long-trace --seed 1 --seconds 26 --trace 0

``--trace 0`` runs the workload's command mix as a user does: one fresh
``python -m geoseq`` process per command, in a closed loop with a single
client, so at most one command runs at a time.  Passes over the mix repeat
until ``--seconds`` is spent.  Every report of the first pass is checked
against the references in ``oracle.py``; every later pass must reproduce
the first byte for byte.

Times are host-normalised: each command's wall time is divided by the
calibration loop timed just before and after it, and multiplied by
``CALIB_REF_S``.  The host's speed drifts by up to 2x over minutes, and
the calibration loop drifts with it, so the ratio is steady where raw
seconds are not.  Raw seconds are printed beside every normalised metric.

``--trace 1`` replays the same mix in process (``tracing.py``) and reports
per-layer times in raw seconds, fitted scaling exponents and
deterministic counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it name every
metric with its unit, the sample counts and where each number came from.
Inputs and outputs live in ``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
SWEEP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
# scale of normalised times: about the calibration loop's time on the 2-core
# host the baseline was recorded on (16-35 ms as its speed drifted)
CALIB_REF_S = 0.03
KINDS = ("analyze", "stat", "transform", "paranorm", "verify")

_CALIB_DATA = [((i * 7919) % 1000) / 250.0 - 2.0 for i in range(1000)]


def calibrate() -> float:
    """Wall time of a fixed pure-Python float loop (about 30 ms): a host-speed probe."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(250):
        for v in _CALIB_DATA:
            total += abs(v - 0.5) ** 1.5
    return time.perf_counter() - t0


class Calibrated:
    """Normalises wall times by the calibration loop timed around them."""

    def __init__(self):
        self.samples = [calibrate()]

    def around(self, wall: float) -> float:
        """Call right after the timed work; returns its host-normalised time."""
        self.samples.append(calibrate())
        return wall / ((self.samples[-2] + self.samples[-1]) / 2) * CALIB_REF_S

    def median(self) -> float:
        return statistics.median(self.samples)


class Cli:
    """Runs ``python -m geoseq`` from the repository's own source tree."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GEOSEQ_LOG_LEVEL="warn")

    def run(self, argv: list, stdout: Path, stderr: Path) -> dict:
        """One command, waited for; wall time, exit code and peak RSS from wait4."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "geoseq", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                "timed_out": wall >= COMMAND_TIMEOUT_S}

    def startup(self) -> float:
        """Wall time of the cheapest command, ``fib --n 1``; fails loudly."""
        out = self.work / "out" / "fib"
        s = self.run(["fib", "--n", "1"], out.with_suffix(".out"), out.with_suffix(".err"))
        if s["rc"] != 0:
            raise RuntimeError(f"geoseq fib --n 1 exited {s['rc']}")
        return s["wall"]


def setup(name: str, seed: int, work: Path) -> tuple:
    """Generate and write the inputs, then run one warm-up command; timed."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    (work / "out").mkdir(parents=True)
    wl = workloads.build(name, seed)
    wl.write_inputs(work)
    Cli(work).startup()
    return wl, time.perf_counter() - t0


def _command_ok(sample: dict, err: Path) -> bool:
    return (sample["rc"] == 0 and not sample["timed_out"]
            and b"Traceback" not in err.read_bytes())


def measure(wl, work: Path, seconds: float, cal: Calibrated) -> dict:
    """Closed-loop passes over the command mix until ``seconds`` are spent."""
    cli = Cli(work)
    out_dir, first_dir = work / "out", work / "first"
    first_dir.mkdir()
    samples = [[] for _ in wl.commands]
    pass_walls = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, cmd in enumerate(wl.commands):
            out, err = out_dir / f"{i}.out", out_dir / f"{i}.err"
            stdout = out_dir / f"{i}.stdout" if cmd.kind == "transform" else out
            s = cli.run(cmd.argv(work, out), stdout, err)
            s["norm"] = cal.around(s["wall"])
            s["ok"] = _command_ok(s, err)
            samples[i].append(s)
        pass_walls.append(time.perf_counter() - t_pass)
        # bookkeeping between passes is outside every timed region
        for i in range(len(wl.commands)):
            data = (out_dir / f"{i}.out").read_bytes() if samples[i][-1]["ok"] else b""
            samples[i][-1]["digest"] = hashlib.sha256(data).hexdigest()
            if len(pass_walls) == 1:
                (first_dir / f"{i}.out").write_bytes(data)
        if time.perf_counter() - t_start + max(pass_walls) > seconds:
            break

    check = oracle.Oracle(wl)
    failed = 0
    for i, cmd in enumerate(wl.commands):
        first = samples[i][0]
        if first["ok"]:
            problems = check.check(cmd, (first_dir / f"{i}.out").read_bytes())
        else:
            problems = [f"exit code {first['rc']}: "
                        f"{(out_dir / f'{i}.err').read_text(errors='replace')[-300:]}"]
        for p in problems:
            print(f"FAIL {cmd.label()}: {p}", file=sys.stderr)
        for s in samples[i]:
            failed += not (s["ok"] and not problems and s["digest"] == first["digest"])

    def per_command(key):
        return [statistics.median(s[key] for s in cmd_samples) for cmd_samples in samples]

    norm, raw = per_command("norm"), per_command("wall")
    every = [s for cmd_samples in samples for s in cmd_samples]
    kinds = {k: (sum(t for t, c in zip(norm, wl.commands) if c.kind == k),
                 sum(t for t, c in zip(raw, wl.commands) if c.kind == k))
             for k in KINDS if any(c.kind == k for c in wl.commands)}
    return {
        "attempted": len(every),
        "failed": failed,
        "passes": len(pass_walls),
        "metrics": {
            "wall_s": (sum(norm), "s", sum(raw)),
            "cmd_p50_s": (statistics.median(s["norm"] for s in every), "s",
                          statistics.median(s["wall"] for s in every)),
            "peak_rss_mb": (max(s["rss_mb"] for s in every), "MB", None),
        },
        "kinds": kinds,
    }


def traced(wl, work: Path, seed: int, seconds: float, cal: Calibrated) -> dict:
    """In-process replay of the mix for ``seconds``, then the small sweep."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    sweep = workloads.build_sweep(seed)
    sweep_dir = work / "sweep"
    sweep_dir.mkdir()
    sweep.write_inputs(sweep_dir)

    cli = Cli(work)
    startup = [cli.startup() for _ in range(STARTUP_REPEATS)]
    check = oracle.Oracle(wl)
    passes, pass_walls = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        tr = tracing.Tracer()
        t_pass = time.perf_counter()
        outputs = tracing.replay(wl.commands, work, tr)
        pass_walls.append(time.perf_counter() - t_pass)
        cal.around(pass_walls[-1])
        if not passes:
            first_outputs = [data for data, _ in outputs]
        for cmd, (data, error), first in zip(wl.commands, outputs, first_outputs):
            attempted += 1
            if error:
                problems = [error]
            elif not passes:
                problems = check.check(cmd, data)
            else:
                problems = [] if data == first else ["output differs from the first traced pass"]
            for p in problems:
                print(f"FAIL {cmd.label()} (traced): {p}", file=sys.stderr)
            failed += bool(problems)
        if passes and tr.counts != passes[0].counts:
            print(f"FAIL counts differ between traced passes: {dict(tr.counts)} "
                  f"vs {dict(passes[0].counts)}", file=sys.stderr)
            failed += 1
        passes.append(tr)
        if time.perf_counter() - t_start + max(pass_walls) > seconds:
            break

    sweeps = [tracing.Tracer() for _ in range(SWEEP_REPEATS)]
    sweep_check = oracle.Oracle(sweep)
    for sweep_tracer in sweeps:
        outputs = tracing.replay(sweep.commands, sweep_dir, sweep_tracer)
        for cmd, (data, error) in zip(sweep.commands, outputs):
            attempted += 1
            problems = [error] if error else sweep_check.check(cmd, data)
            for p in problems:
                print(f"FAIL sweep {cmd.label()} (traced): {p}", file=sys.stderr)
            failed += bool(problems)

    metrics, notes = tracing.layer_metrics(passes, sweeps)
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["host.calib_s"] = (cal.median(), "s")
    metrics["trace.wall_s"] = (statistics.median(pass_walls), "s")
    return {"attempted": attempted, "failed": failed, "passes": len(passes),
            "metrics": {k: (v, unit, None) for k, (v, unit) in metrics.items()},
            "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geoseq" / "__main__.py").is_file():
        print(f"bench: no geoseq source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    cal = Calibrated()
    try:
        setup_norm, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            wl, dt = setup(args.workload, args.seed, work)
            setup_norm.append(cal.around(dt))
            setup_raw.append(dt)
        if args.trace:
            result = traced(wl, work, args.seed, args.seconds, cal)
        else:
            result = measure(wl, work, args.seconds, cal)
            result["metrics"]["setup_s"] = (statistics.median(setup_norm), "s",
                                            statistics.median(setup_raw))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {result['passes']} passes, "
          f"{result['attempted']} commands attempted, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g})")
    for name, (value, unit, raw) in sorted(result["metrics"].items()):
        note = result.get("notes", {}).get(name, "")
        if raw is not None:
            note = f"host-normalised; raw {raw:.4g} s"
        if name == "cmd_p50_s":
            note += f"; median of {result['attempted']} command samples"
        print(f"#   {name:28s} {value!r:>24} {unit:6s} {note}")
    for kind, (value, raw) in result.get("kinds", {}).items():
        print(f"#   {kind + '_s':28s} {value!r:>24} s      per-kind sum, not gated; raw {raw:.4g} s")
    if not args.trace:
        print(f"#   {'host.calib_s':28s} {cal.median()!r:>24} s      host drift probe")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
