"""E-matrix — hardware-matrix sweep: process-pool vs thread-pool cold time.

The emulated models are pure-Python CPU work, so a cold sweep is
GIL-bound under threads; the process backend shards it across cores. This
bench runs one cold 2-GPU matrix slice per backend (fresh stores, so every
completion is computed) and a warm thread replay, and records wall time.
On a multi-core host the process backend should approach cores× over
sequential while threads stay near 1×; on a single-core host the two
backends tie (minus pool overhead), which the table makes visible rather
than asserting away.
"""

from __future__ import annotations

import os
import time

from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.matrix import run_matrix
from repro.llm import get_model
from repro.llm.reasoner import clear_analysis_memo
from repro.roofline.hardware import get_gpu
from repro.util.tables import format_table

MODELS = ("o3-mini-high", "gpt-4o-mini")
GPUS = ("V100", "H100")
SLICE = 60
JOBS = max(4, os.cpu_count() or 1)


def _sweep(backend: str, jobs: int, store=None):
    engine = EvalEngine(jobs=jobs, store=store, backend=backend)
    t0 = time.perf_counter()
    result = run_matrix(
        [get_model(n) for n in MODELS],
        [get_gpu(n) for n in GPUS],
        rqs=("rq2",),
        limit=SLICE,
        engine=engine,
    )
    return result, time.perf_counter() - t0


def test_matrix_backend_walltime(dataset):
    # Scenario profiling is memoized; prime it so each sweep times only the
    # completion fan-out. The emulated models' kernel readings are memoized
    # too; clear them so every cold sweep reads each kernel afresh.
    run_matrix([get_model(MODELS[0])], [get_gpu(GPUS[0])],
               rqs=("rq2",), limit=1)

    clear_analysis_memo()
    baseline, t_seq = _sweep("sequential", 1)
    clear_analysis_memo()
    threads, t_thread = _sweep("thread", JOBS)
    store = MemoryResponseStore()
    clear_analysis_memo()
    procs, t_proc = _sweep("process", JOBS, store=store)
    warm, t_warm = _sweep("thread", JOBS, store=store)

    rows = [
        ["sequential cold", 1, f"{t_seq:.3f}", f"{t_seq / t_seq:.2f}x"],
        ["thread cold", JOBS, f"{t_thread:.3f}", f"{t_seq / t_thread:.2f}x"],
        ["process cold", JOBS, f"{t_proc:.3f}", f"{t_seq / t_proc:.2f}x"],
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
    assert procs == baseline
    assert warm == baseline
    # The warm replay is pure cache lookups: it must beat the cold sweep.
    assert t_warm < t_proc or t_warm < t_thread
