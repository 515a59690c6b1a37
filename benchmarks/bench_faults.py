"""Fault-tolerance overhead — the retry wrapper on the happy path.

The robustness layer promises to be near-free when nothing goes wrong:
the sync retry wrapper adds microseconds per successful call — no
sleeps, no clock reads beyond the attempt loop itself. It is timed here
with an explicit bound so a regression that makes the happy path pay for
the unhappy one fails loudly in tier-2. A warm sweep (every completion
under that wrapper) is timed alongside for scale and must reproduce the
cold sweep's result exactly.
"""

from __future__ import annotations

import os
import time

from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.matrix import run_matrix
from repro.llm import get_model
from repro.roofline.hardware import get_gpu
from repro.util.retry import RetryPolicy, retry_call
from repro.util.tables import format_table

MODEL = "o3-mini-high"
GPUS = ("V100", "H100")
SLICE = 60
JOBS = max(4, os.cpu_count() or 1)
CALLS = 20_000
#: Per-call budget for the retry wrapper on the success path.
MAX_RETRY_US = 50.0


def _sweep(store):
    engine = EvalEngine(jobs=JOBS, store=store)
    t0 = time.perf_counter()
    result = run_matrix(
        [get_model(MODEL)],
        [get_gpu(n) for n in GPUS],
        rqs=("rq2",),
        limit=SLICE,
        engine=engine,
    )
    return result, time.perf_counter() - t0


def _best_of(repeats, fn):
    return min(fn() for _ in range(repeats))


def test_fault_tolerance_overhead(dataset):
    # --- retry wrapper, success path ------------------------------------
    policy = RetryPolicy()

    def timed_direct():
        t0 = time.perf_counter()
        for _ in range(CALLS):
            (lambda: 1)()
        return time.perf_counter() - t0

    def timed_wrapped():
        t0 = time.perf_counter()
        for _ in range(CALLS):
            retry_call(lambda: 1, policy=policy)
        return time.perf_counter() - t0

    t_direct = _best_of(3, timed_direct)
    t_wrapped = _best_of(3, timed_wrapped)
    retry_us = 1e6 * (t_wrapped - t_direct) / CALLS

    # --- cold vs warm in-process sweep ----------------------------------
    store = MemoryResponseStore()
    cold, t_cold = _sweep(store)  # cold fill; primes scenario profiling too
    warm, t_warm = _sweep(store)

    rows = [
        ["retry_call per call", f"{retry_us:.1f}us",
         f"< {MAX_RETRY_US:.0f}us"],
        ["in-process cold sweep", f"{t_cold:.3f}", ""],
        ["in-process warm sweep", f"{t_warm:.3f}", ""],
    ]
    print()
    print(format_table(
        ["plan", "wall s", "bound"],
        rows,
        title=(f"Fault-tolerance overhead — "
               f"{len(GPUS)} GPUs × {SLICE} kernels"),
    ))

    assert warm == cold  # replaying the store never changes the result
    assert retry_us < MAX_RETRY_US, (
        f"retry_call adds {retry_us:.1f}us/call (> {MAX_RETRY_US:.0f}us)"
    )
