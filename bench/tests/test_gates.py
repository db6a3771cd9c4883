"""Self-tests of the benchmark's own gates and inputs.

    python3 -m pytest bench/tests -q

Negative controls: a tampered table entry must fail the replay gate and a
tampered closure step the explore gate, and the runner must refuse to run
without the package sources.  The speed-normalised clock must leave its
probes out and put the signal handler back when stopped.
"""

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from speedclock import PERIOD_S, PROBE_REF_S, SpeedClock, probe_loop  # noqa: E402
from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly  # noqa: E402

F = Fraction


def test_replay_gate_catches_tampered_table_entry():
    shape = ("sl", (3, 2), ())
    tr = Tracer(False)
    [(_, ctx, cdata)] = algebras = wl._algebras(tr, [shape])
    [row] = wl.replay_run(tr, algebras, [], [])
    digests = wl.load_digests()
    attempted, failures = wl.replay_checks(*row, digests)
    assert attempted > 0 and failures == []

    _, sym, k1, reports, closure, conf = row
    entries = dict(sym.entries)
    a, b = ctx.gen(F(5, 2), 1, 2), ctx.gen(F(5, 2), 2, 1)
    entries[(a, b)] = entries[(a, b)] + LambdaPoly({0: DiffPoly.variable(ctx.gen(2, 1, 1))})
    tampered = BracketTable(cdata.gens, entries)
    _, failures = wl.replay_checks(shape, tampered, k1, reports, closure, conf, digests)
    assert any("digest" in f for f in failures)
    assert any("k=1 entry" in f for f in failures)


def test_explore_gate_catches_tampered_closure_step():
    tr = Tracer(False)
    ctx, cdata, table, seed_sets = wl.explore_setup(tr, seed=1)
    out = wl.explore_run(tr, (ctx, cdata, table, seed_sets[:10]), [], [])
    attempted, failures = wl.explore_gate((ctx, cdata, table, seed_sets), out)
    assert attempted > 0 and failures == []

    rep = next(r for r in out if any(s.n >= 0 for s in r.dag))
    k = next(i for i, s in enumerate(rep.dag) if s.n >= 0)
    step = rep.dag[k]
    g = next(iter(step.linear))
    bad = dataclasses.replace(step, linear={**step.linear, g: step.linear[g] + 1})
    tampered = dataclasses.replace(rep, dag=rep.dag[:k] + [bad] + rep.dag[k + 1:])
    _, failures = wl.closure_checks(table, tampered)
    assert len(failures) == 1 and bad.element in failures[0]


def test_explore_seed_sets_follow_the_seed():
    tr = Tracer(False)
    [(_, _, cdata)] = wl._algebras(tr, wl.SHAPES["explore"])
    first = wl.explore_seed_sets(cdata.gens, 7)
    assert first == wl.explore_seed_sets(cdata.gens, 7)
    assert first != wl.explore_seed_sets(cdata.gens, 8)
    assert len(first) == wl.EXPLORE_SEARCHES
    assert all(1 <= len(s) <= 3 for s in first)
    assert any(isinstance(e, dict) for s in first for e in s)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_clock_credits_work_at_the_probed_speed():
    clock = SpeedClock()
    clock.start()
    wall0, t0, calls = time.perf_counter(), clock(), 0
    while time.perf_counter() - wall0 < 20 * PERIOD_S:
        probe_loop()
        calls += 1
    ref = clock() - t0
    clock.stop()
    assert clock.probes >= 10
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # work identical to a probe reads PROBE_REF_S a call, whatever the host's
    # speed, and the probes' own time is left out
    assert abs(ref / (calls * PROBE_REF_S) - 1) < 0.5
