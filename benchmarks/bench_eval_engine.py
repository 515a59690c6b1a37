"""E-engine — evaluation-engine throughput: parallel fan-out + response cache.

Measures the classification hot path (the workload behind Table 1 cols
6-11) three ways: the sequential cold path, a cold parallel engine, and a
warm-cache replay. The warm replay must produce identical records while
running ≥ 3× faster — deep static analysis per completion dominates the
cold path, and the cache turns it into a hash + lookup.
"""

from __future__ import annotations

import gc
import time

from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.runner import run_queries
from repro.llm import get_model, reasoner
from repro.prompts import build_classify_prompt
from repro.util.tables import format_table

MODEL = "o3-mini-high"


def _items(balanced, n=200):
    return [
        (s.uid, build_classify_prompt(s).text, s.label) for s in balanced[:n]
    ]


def _timed(run):
    """``run()`` and its wall time, with the heap built so far frozen.

    A full collection walks the test run's whole dataset heap, which takes
    longer than the warm pass itself; landing in a timed window, it would
    measure the heap the other tests left, not the engine."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        result = run()
        return result, time.perf_counter() - t0
    finally:
        gc.unfreeze()


def test_engine_warm_cache_speedup(balanced):
    items = _items(balanced)
    model = get_model(MODEL)

    sequential, t_seq = _timed(lambda: run_queries(model, items))

    # The sequential pass memoized every kernel reading; drop them so the
    # parallel pass is cold too.
    reasoner.ANALYSES.clear()
    reasoner.DRAWS.clear()
    store = MemoryResponseStore()
    cold_engine = EvalEngine(jobs=8, store=store)
    cold, t_cold = _timed(
        lambda: run_queries(model, items, engine=cold_engine)
    )

    warm_engine = EvalEngine(jobs=8, store=store)
    warm, t_warm = _timed(
        lambda: run_queries(model, items, engine=warm_engine)
    )

    rows = [
        ["sequential cold", f"{t_seq:.3f}", f"{len(items) / t_seq:.0f}", "1.0x"],
        ["parallel cold", f"{t_cold:.3f}", f"{len(items) / t_cold:.0f}",
         f"{t_seq / t_cold:.1f}x"],
        ["parallel warm", f"{t_warm:.3f}", f"{len(items) / t_warm:.0f}",
         f"{t_seq / t_warm:.1f}x"],
    ]
    print()
    print(format_table(
        ["Path", "Wall (s)", "Items/s", "Speedup"], rows,
        title=f"E-engine — {MODEL} x {len(items)} classification items",
    ))

    assert cold == sequential
    assert warm == sequential
    assert warm_engine.stats.misses == 0
    assert warm_engine.stats.hits == len(items)
    speedup = t_seq / t_warm
    assert speedup >= 3.0, f"warm cache only {speedup:.1f}x faster"


def test_benchmarked_warm_replay(benchmark, balanced):
    """pytest-benchmark stats for the steady-state (warm) engine."""
    items = _items(balanced, n=100)
    model = get_model(MODEL)
    store = MemoryResponseStore()
    run_queries(model, items, engine=EvalEngine(store=store))  # warm

    result = benchmark.pedantic(
        lambda: run_queries(
            model, items, engine=EvalEngine(jobs=4, store=store)
        ),
        rounds=3,
        iterations=1,
    )
    assert result.metrics().n == 100
