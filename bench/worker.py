"""One repetition of one workload, in a fresh interpreter.

run.py starts this once per repetition, so that no cache from an earlier
repetition (the module-level bracket-table cache, each table's Leibniz cache,
the algebra's centralizer) survives into the next.  It prints one JSON object
on its last line of output.

    python3 -s -S bench/worker.py --workload W --seed N --mode full|setup \
        --trace 0|1 --gate 0|1 --spawned <time.monotonic() when started>

With --gate 1 the outputs are checked exactly.  Every full repetition
reports a sha256 fingerprint of the JSON reports its timed work produced, so
that run.py can check later repetitions against a gated one cheaply.

Times are read on the speed-normalised clock of speedclock.py, started as
the worker starts; the interval from the spawn to that start is credited at
the clock's first reading.  Wall-clock figures are reported beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=1)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    spawn_s = time.monotonic() - args.spawned
    from speedclock import SpeedClock
    clock = SpeedClock()
    clock.start()
    spawn_ref_s = spawn_s * clock.scale

    sys.path.insert(0, str(SRC))
    import walgebra
    if Path(walgebra.__file__).resolve().parent != SRC / "walgebra":
        clock.stop()
        print(f"walgebra imported from {walgebra.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    setup, run, gate = workloads.WORKLOADS[args.workload]
    tr = Tracer(bool(args.trace), clock)
    state = setup(tr, args.seed)
    setup_s = spawn_ref_s + clock()
    result = {"setup_s": setup_s, "setup_wall_s": spawn_s + clock.wall()}
    if args.mode == "full":
        units: list = []
        docs: list = []
        t0, wall0 = clock(), clock.wall()
        out = run(tr, state, units, docs)
        wall_s = clock() - t0
        result["raw_wall_s"] = clock.wall() - wall0
    clock.stop()
    result["probe_ms"] = 1e3 * sorted(clock.durations)[len(clock.durations) // 2]
    if args.mode == "full":
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failures = gate(state, out) if args.gate else (0, [])
        fingerprint = hashlib.sha256("\n".join(docs).encode()).hexdigest()
        result.update(wall_s=wall_s, units_ms=units, rss_mb=rss_mb, attempted=attempted,
                      failures=failures, fingerprint=fingerprint, spans=tr.spans,
                      counts=dict(tr.counts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
