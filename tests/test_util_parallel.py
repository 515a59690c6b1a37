"""``parallel_map`` semantics: ordering, degradation, and fail-fast.

The fail-fast contract is the PR-7 regression pin: before it, a failing
shard let every remaining shard run to completion — a bad sweep burned
the whole grid's worth of doomed work before surfacing the error.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.util.parallel import (
    MAX_JOBS,
    parallel_map,
    resolve_jobs,
    round_robin_partition,
)


class TestBasics:
    def test_preserves_input_order(self):
        items = list(range(100))
        assert parallel_map(lambda x: x * x, items, jobs=4) == [
            x * x for x in items
        ]

    def test_sequential_backend_and_single_job_degrade(self):
        """One job, or one item at any job count, runs the plain loop in
        the calling thread."""
        caller = threading.get_ident()
        for items, jobs in (([3, 1, 2], 1), ([3], 8)):
            seen = []

            def fn(x):
                seen.append(threading.get_ident())
                return -x

            assert parallel_map(fn, items, jobs=jobs) == [-x for x in items]
            assert set(seen) == {caller}

    def test_resolvers(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) == resolve_jobs(0)
        assert resolve_jobs(10**6) == MAX_JOBS

    def test_round_robin_partition(self):
        assert round_robin_partition([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]


class TestFailFast:
    def test_sequential_path_raises_first_failure(self):
        def fn(x):
            if x == 2:
                raise RuntimeError("boom at 2")
            return x

        with pytest.raises(RuntimeError, match="boom at 2"):
            parallel_map(fn, [0, 1, 2, 3], jobs=1)

    def test_threaded_failure_propagates(self):
        def fn(x):
            if x == 7:
                raise KeyError("seven")
            return x

        with pytest.raises(KeyError):
            parallel_map(fn, list(range(64)), jobs=4)

    def test_later_shards_are_cancelled_after_first_failure(self):
        """A failing shard must cancel the not-yet-started shards instead
        of letting the whole grid run to completion.

        Layout: 2 workers, ~8 contiguous shards of 50 items. Shard 0
        fails on its very first item; each surviving item sleeps 1 ms, so
        a shard takes ~50 ms — while the failure lands in microseconds.
        At most the two in-flight shards (executors can't preempt) may
        finish; the queued majority must be cancelled unrun. Pre-fix,
        every one of the 399 surviving items executed.
        """
        items = list(range(400))  # jobs * 4 = 8 shards of 50
        executed: list[int] = []
        lock = threading.Lock()

        def fn(x):
            if x == 0:
                raise RuntimeError("first item of first shard")
            time.sleep(0.001)
            with lock:
                executed.append(x)
            return x

        with pytest.raises(RuntimeError, match="first item"):
            parallel_map(fn, items, jobs=2)

        # In-flight shards drain (executors can't preempt a running
        # shard, and a freed worker may grab one queued shard before the
        # shutdown lands) — but the cancelled majority never runs.
        assert len(executed) <= 3 * 50
        assert len(executed) < len(items) - 1

    def test_store_survives_failed_sweep(self):
        """After a failed fan-out the pool is shut down; a fresh call on
        the same inputs still works (no poisoned global state)."""

        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("first call fails")
            return x

        with pytest.raises(ValueError):
            parallel_map(flaky, [1, 2, 3, 4], jobs=2)
        assert parallel_map(lambda x: x + 1, [1, 2], jobs=2) == [2, 3]
