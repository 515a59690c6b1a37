"""E-matrix — hardware-matrix sweep: plain loop vs thread pool, cold and warm.

The emulated models are pure-Python CPU work, so a cold sweep is
GIL-bound under threads (``sweep --shard`` plus ``merge-caches`` is the
multi-process path). This bench runs one cold 2-GPU matrix slice on the
plain loop and on a thread pool (fresh stores, so every completion is
computed), then a warm thread replay, and records wall time. Threads stay
near 1× over the loop, which the table makes visible rather than
asserting away; every plan must agree byte for byte.
"""

from __future__ import annotations

import os
import time

from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.matrix import run_matrix
from repro.llm import get_model, reasoner
from repro.roofline.hardware import get_gpu
from repro.util.tables import format_table

MODELS = ("o3-mini-high", "gpt-4o-mini")
GPUS = ("V100", "H100")
SLICE = 60
JOBS = max(4, os.cpu_count() or 1)


def _sweep(jobs: int, store=None):
    engine = EvalEngine(jobs=jobs, store=store)
    t0 = time.perf_counter()
    result = run_matrix(
        [get_model(n) for n in MODELS],
        [get_gpu(n) for n in GPUS],
        rqs=("rq2",),
        limit=SLICE,
        engine=engine,
    )
    return result, time.perf_counter() - t0


def _clear_readings() -> None:
    reasoner.ANALYSES.clear()
    reasoner.DRAWS.clear()


def test_matrix_backend_walltime(dataset):
    # Scenario profiling is memoized; prime it so each sweep times only the
    # completion fan-out. The emulated models' kernel readings are memoized
    # too; clear them so every cold sweep reads each kernel afresh.
    run_matrix([get_model(MODELS[0])], [get_gpu(GPUS[0])],
               rqs=("rq2",), limit=1)

    _clear_readings()
    baseline, t_seq = _sweep(1)
    store = MemoryResponseStore()
    _clear_readings()
    threads, t_thread = _sweep(JOBS, store=store)
    warm, t_warm = _sweep(JOBS, store=store)

    rows = [
        ["sequential cold", 1, f"{t_seq:.3f}", f"{t_seq / t_seq:.2f}x"],
        ["thread cold", JOBS, f"{t_thread:.3f}", f"{t_seq / t_thread:.2f}x"],
        ["thread warm", JOBS, f"{t_warm:.3f}", f"{t_seq / t_warm:.2f}x"],
    ]
    print()
    print(format_table(
        ["plan", "jobs", "wall s", "speedup"],
        rows,
        title=(f"Hardware matrix cold sweep — {len(MODELS)} models × "
               f"{len(GPUS)} GPUs × {SLICE} kernels "
               f"({os.cpu_count()} cores)"),
    ))

    # Whatever the hardware, every plan must agree byte-for-byte.
    assert threads == baseline
    assert warm == baseline
    # The warm replay is pure cache lookups: it must beat the cold sweep.
    assert t_warm < t_thread
