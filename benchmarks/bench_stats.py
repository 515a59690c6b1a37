"""E-stats — significance suite overhead on a warm matrix sweep.

``repro-paper matrix --stats`` promises that the statistics pass (paired
Wilcoxon tests, A12 effect sizes, BCa bootstrap CIs for every cell) is a
cheap addendum to the sweep itself: pure array math over records already
in memory, no completions, no profiling, no I/O.

Two measurements back that up:

* in-process: the stats pass is timed alone against a warm in-memory
  replay — absolute time, sub-second at any realistic grid size;
* end-to-end: ``repro-paper matrix`` vs ``matrix --stats`` over the same
  warm disk cache in fresh processes (what a CI tier-2 job runs), where
  the stats pass must add <10% wall time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from repro.analysis.stats import build_stats_report
from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.matrix import run_matrix
from repro.llm import get_model
from repro.roofline.hardware import get_gpu
from repro.util.tables import format_table

MODELS = ("o3-mini-high", "gpt-4o-mini")
GPUS = ("V100", "H100")
REGIMES = ("rq2", "rq3")
SLICE = 60
JOBS = max(4, os.cpu_count() or 1)
MAX_OVERHEAD = 0.10
#: The pure-math pass must stay this fast in absolute terms, whatever the
#: host — it is 16 bootstrap runs plus 3 rank tests over ≤480 outcomes.
MAX_STATS_SECONDS = 2.0


def _sweep(store):
    engine = EvalEngine(jobs=JOBS, store=store)
    t0 = time.perf_counter()
    result = run_matrix(
        [get_model(n) for n in MODELS],
        [get_gpu(n) for n in GPUS],
        rqs=REGIMES,
        limit=SLICE,
        engine=engine,
    )
    return result, time.perf_counter() - t0


def _cli_matrix(cache_dir, *extra) -> float:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env.setdefault("PYTHONPATH", "src")
    cmd = [
        sys.executable, "-m", "repro.cli", "matrix",
        "--model", MODELS[0], "--gpus", ",".join(GPUS),
        "--rq", "both", "--limit", str(SLICE), "--jobs", str(JOBS),
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    return elapsed


def test_stats_pass_overhead(dataset, tmp_path):
    store = MemoryResponseStore()
    _sweep(store)  # cold fill; primes scenario profiling too

    baseline, t_warm = _sweep(store)
    matrix, _ = _sweep(store)
    t0 = time.perf_counter()
    report = build_stats_report(matrix)
    t_stats = time.perf_counter() - t0

    cache_dir = tmp_path / "bench-cache"
    _cli_matrix(cache_dir)  # cold fill for the end-to-end runs
    t_cli_warm = _cli_matrix(cache_dir)
    t_cli_stats = _cli_matrix(cache_dir, "--stats")

    rows = [
        ["in-process warm matrix", f"{t_warm:.3f}", ""],
        ["in-process stats pass", f"{t_stats:.3f}", ""],
        ["CLI warm matrix", f"{t_cli_warm:.3f}", ""],
        ["CLI warm matrix --stats", f"{t_cli_stats:.3f}",
         f"{100.0 * (t_cli_stats - t_cli_warm) / t_cli_warm:+.1f}%"],
    ]
    print()
    print(format_table(
        ["plan", "wall s", "overhead"],
        rows,
        title=(f"Significance suite on a warm sweep — {len(MODELS)} models "
               f"× {len(GPUS)} GPUs × {len(REGIMES)} regimes × "
               f"{SLICE} kernels"),
    ))

    assert matrix == baseline
    assert len(report.comparisons) == 3  # one pair per axis
    # Same matrix, same default seed: the report digest is reproducible.
    assert build_stats_report(matrix).digest() == report.digest()
    # The promise under test: the stats pass is a cheap addendum — small
    # in absolute terms, <10% of a warm end-to-end sweep.
    assert t_stats < MAX_STATS_SECONDS
    assert t_cli_stats - t_cli_warm < MAX_OVERHEAD * t_cli_warm, (
        f"--stats added {t_cli_stats - t_cli_warm:.3f}s to a "
        f"{t_cli_warm:.3f}s warm CLI sweep "
        f"(> {100.0 * MAX_OVERHEAD:.0f}%)"
    )
