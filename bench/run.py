#!/usr/bin/env python3
"""The walgebra benchmark.

    python3 bench/run.py --workload replay|axioms|reconcile|explore \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (bench/worker.py), one at a time, importing walgebra from the
checkout's src/.  Repetitions continue while the next one is expected to
finish within --seconds; set-up is then sampled on its own until there are
at least five samples of it, and up to fifteen while time is left.  The
first repetition's outputs are checked exactly, outside the timed region;
every later one must reproduce its JSON reports byte for byte.

Times are read on the speed-normalised clock of speedclock.py: seconds of
work at a fixed reference speed, so that the host's speed, which swings by a
third on a shared machine, cancels.  The wall-clock figures and the host
speed the probes saw are printed beside them, ungated.

--trace 0 prints the end-to-end metrics wall_s, setup_s and peak_rss_mb,
each a median over repetitions (or set-ups); on axioms and explore it also
prints the per-unit latencies unit_p50_ms and unit_p95_ms, and every run
prints failed_ratio.  --trace 1 runs one untraced and one traced repetition,
writes the traced spans to bench/out/, and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NOT_MEASURED, layer_metrics, percentile, self_times
from speedclock import PROBE_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("replay", "axioms", "reconcile", "explore")
SETUP_SAMPLES = (5, 15)
DEADLINE_S = 170.0
# workloads whose repetitions consist of hundreds of like units
UNIT_OF = {
    "axioms": "one Jacobi triple",
    "explore": "one closure_search call",
}


class BenchError(Exception):
    pass


def calibrate_ms() -> float:
    """A fixed pure-Python loop: a machine-speed diagnostic, never gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def provenance() -> dict:
    meta = {
        "rev": None,
        "dirty": None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or None,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        meta["cpu_model"] = models[0] if models else meta["cpu_model"]
    except OSError:
        pass
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, env=env, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if rev.returncode == 0:
                meta["rev"] = rev.stdout.strip()
                meta["dirty"] = bool(status.stdout.strip())
    return meta


class Launcher:
    """Starts workers one at a time, each a fresh interpreter that sees only
    the standard library and the checkout's src/."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONHASHSEED"] = "0"

    def __call__(self, mode: str, trace: int = 0, gate: int = 1) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next repetition")
        cmd = [sys.executable, "-s", "-S", str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--trace", str(trace), "--gate", str(gate)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} repetition exceeded the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(launch: Launcher, seconds: float) -> tuple:
    """Full repetitions while the next is expected to end within ``seconds``,
    then set-up-only samples: at least SETUP_SAMPLES[0] set-ups in all, and
    more, up to SETUP_SAMPLES[1], while the next is expected to end within
    ``seconds``."""
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(launch("full", gate=int(not reps)))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    setups = reps[:]
    while len(setups) < SETUP_SAMPLES[0]:
        setups.append(launch("setup"))
    while len(setups) < SETUP_SAMPLES[1]:
        t0 = time.monotonic()
        setups.append(launch("setup"))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    return reps, setups


def end_to_end(reps: list, setups: list, setups_wall: list) -> tuple:
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in reps)
    raw = statistics.median(r["raw_wall_s"] for r in reps)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    samples = {"wall_s": f"median of {len(reps)} repetitions: {walls} (wall clock {raw:.3f})",
               "setup_s": f"median of {len(setups)} set-ups (wall clock "
                          f"{statistics.median(setups_wall):.3f})",
               "peak_rss_mb": f"median of {len(reps)} repetitions"}
    return metrics, samples


def unit_latency(workload: str, reps: list) -> dict:
    """unit_p50_ms and unit_p95_ms where a repetition has hundreds of units:
    percentiles per repetition, then their median over repetitions, so one
    slowed repetition moves them no more than it moves wall_s."""
    if workload not in UNIT_OF:
        return {}
    note = (f"median over {len(reps)} repetitions of {len(reps[0]['units_ms'])} units "
            f"each: {UNIT_OF[workload]}")
    return {f"unit_p{p}_ms": (statistics.median(percentile(r["units_ms"], p) for r in reps),
                              "ms", note)
            for p in (50, 95)}


def write_trace(workload: str, seed: int, rep: dict, layers: dict, meta: dict) -> Path:
    t0 = min((s[2] for s in rep["spans"]), default=0.0)
    doc = {
        "workload": workload, "seed": seed, "provenance": meta,
        "spans": [{"id": i, "name": n, "parent": p, "start_s": s - t0, "dur_s": e - s}
                  for i, (n, p, s, e) in enumerate(rep["spans"])],
        "self_time_s": self_times(rep["spans"]),
        "counts": rep["counts"],
        "layer_metrics": {k: v for k, (v, _u) in layers.items()},
        "not_measured": list(NOT_MEASURED),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description="walgebra benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "walgebra" / "__init__.py").is_file():
        print(f"error: no walgebra sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    meta = provenance()
    cal_start = calibrate_ms()
    launch = Launcher(args.workload, args.seed)
    try:
        if args.trace:
            reps = [launch("full"), launch("full", trace=1, gate=0)]
        else:
            reps, setups = measure(launch, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cal_end = calibrate_ms()

    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps) + len(reps) - 1
    failures += [f"repetition {i + 1} produced other reports than repetition 1"
                 for i, r in enumerate(reps[1:], 1)
                 if r["fingerprint"] != reps[0]["fingerprint"]]
    print(f"walgebra benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"  rev {meta['rev']} dirty={meta['dirty']} python {meta['python']} "
          f"nproc {meta['nproc']} cpu {meta['cpu_model']!r} src {meta['src_lines']} lines")
    print(f"  calibration loop {cal_start:.1f} ms at start, {cal_end:.1f} ms at end (ungated)")
    probes = [r["probe_ms"] for r in (reps if args.trace else setups)]
    print(f"  speed probe median {statistics.median(probes):.3f} ms a repetition "
          f"(reference {PROBE_REF_S * 1e3:g} ms; ungated): "
          + ", ".join(f"{p:.3f}" for p in probes))
    if args.trace:
        traced = reps[1]
        metrics = layer_metrics(traced["spans"], traced["counts"],
                                traced["wall_s"] - reps[0]["wall_s"])
        samples = {}
        path = write_trace(args.workload, args.seed, traced, metrics, meta)
        print(f"  spans: {len(traced['spans'])} written to {path.relative_to(ROOT)}")
        print(f"  wall_s untraced {reps[0]['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s")
        print(f"  not measured (no public boundary called from outside): "
              f"{', '.join(NOT_MEASURED)}")
    else:
        metrics, samples = end_to_end(reps, [r["setup_s"] for r in setups],
                                      [r["setup_wall_s"] for r in setups])
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {samples.get(name, '')}")
    if not args.trace:
        for name, (value, unit, note) in unit_latency(args.workload, reps).items():
            print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'failed_ratio':28s} {len(failures) / attempted:14.6g} {'ratio':6s} "
          f"{len(failures)} failed of {attempted} checks")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
