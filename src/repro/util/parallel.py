"""Deterministic fan-out over pluggable executor backends.

Every sweep in the repo funnels through :func:`parallel_map`, which shards
work across one of three backends:

* ``"sequential"`` — a plain loop; the reference semantics.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; no
  pickling, shared read-only state. The emulated models are pure-Python
  CPU work, so the GIL caps cold-sweep speedup.
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Every :func:`parallel_map` call opens a fresh pool, so its workers
  start with empty per-process memos and redo the per-kernel analysis in
  every matrix cell; on a 2-vCPU host a cold 6-GPU × both-regime matrix
  with the stores off takes 1.5–2× as long with ``process --jobs 2`` as
  with ``thread --jobs 1``. The multi-process path that pays is
  ``sweep --shard`` plus ``merge-caches``. The mapped function and its items must be
  picklable (module-level functions / ``partial`` over picklable args).

Whatever the backend and worker count, results always come back in
submission order, so any execution plan yields byte-identical downstream
artefacts.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Hard ceiling on worker threads (beyond this the GIL is the bottleneck).
MAX_JOBS = 64

#: The recognised executor backends, in "cheapest first" order.
BACKENDS = ("sequential", "thread", "process")

#: Default backend: threads keep the no-pickling semantics the repo grew
#: up with, and beat ``"process"`` on small hosts (see the module doc).
DEFAULT_BACKEND = "thread"


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 or negative means "all cores"."""
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(int(jobs), MAX_JOBS))


def resolve_backend(backend: str) -> str:
    """Validate and normalise an executor-backend name."""
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; choose from {BACKENDS}"
        )
    return name


def round_robin_partition(seq: Sequence[T], buckets: int) -> list[list[T]]:
    """Deterministic interleaved partition: bucket ``j`` gets ``seq[j::buckets]``.

    Bucket sizes differ by at most one and the assignment depends only on
    ``seq`` order and ``buckets``. This is the primitive under
    :mod:`repro.eval.shard`'s planner, where interleaving a canonically
    sorted grid spreads every (model, GPU, RQ) cell's items evenly across
    shards instead of handing whole cells to one worker.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    return [list(seq[j::buckets]) for j in range(buckets)]


def _shards(seq: Sequence[T], jobs: int) -> list[Sequence[T]]:
    """Contiguous chunks — a handful per worker, so the pool amortises
    scheduling (and, for processes, pickling) over many items while still
    load-balancing uneven work units."""
    chunk = max(1, len(seq) // (jobs * 4))
    return [seq[i : i + chunk] for i in range(0, len(seq), chunk)]


def _apply_shard(fn: Callable[[T], R], shard: Sequence[T]) -> list[R]:
    """Module-level so the process backend can pickle (fn, shard) pairs."""
    return [fn(x) for x in shard]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> list[R]:
    """Apply ``fn`` to every item, fanning out across ``jobs`` workers.

    Results are returned in input order. Failure is **fail-fast**: the
    moment any shard raises, every not-yet-started shard is cancelled and
    the earliest-submitted failure propagates — a bad sweep dies in one
    shard's time instead of burning workers on doomed shards. (Shards
    already running when the failure lands finish their in-flight work;
    executors cannot preempt them.) ``jobs <= 1`` (or a single item)
    always degrades to the sequential loop, whatever the backend. With
    ``backend="process"``, ``fn`` and the items must be picklable; each
    shard pickles ``fn`` once.
    """
    seq: Sequence[T] = items if isinstance(items, (list, tuple)) else list(items)
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend)
    if jobs <= 1 or len(seq) <= 1 or backend == "sequential":
        return [fn(x) for x in seq]
    jobs = min(jobs, len(seq))
    shards = _shards(seq, jobs)
    pool_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    with pool_cls(max_workers=jobs) as pool:
        futures = [pool.submit(_apply_shard, fn, shard) for shard in shards]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed = next(
            (
                f
                for f in futures
                if f.done() and not f.cancelled() and f.exception() is not None
            ),
            None,
        )
        if failed is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            raise failed.exception()
        out: list[R] = []
        for future in futures:
            out.extend(future.result())
        return out
