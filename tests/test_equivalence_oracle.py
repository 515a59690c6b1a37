"""Equivalence oracle: every execution path of one small grid agrees.

One seeded grid runs through every way the repo can evaluate it — the
sync engine's plain loop (``jobs=1``) and thread pool (``jobs=4``) with
the response store off, cold on disk and warm on disk; the async engine
cold and warm; and a re-run of the whole grid over a store holding only
the first model's units. The grid is two models × twenty units: twelve
RQ1 questions and eight classification prompts (four kernels ×
``zero-shot``/``few-shot-2`` on one GPU), so the emulated model's
classify path and its per-process memos run on every path too. The
oracle asserts:

* one :class:`~repro.eval.runner.RunResult` digest across all paths;
* byte-identical ``responses-*.bin`` runs across the disk stores, each
  compacted to one canonical run first (flush boundaries may differ
  between paths; the compacted bytes may not);
* zero completions on every warm path;
* identical ``hits``/``misses``/``uncached``/``retries``/``failed``
  across the sync executors and the async engine under an injected
  fault plan.

This is the safety net for the engine core: any path that drifts from
the shared lookup → compute → commit → assemble pipeline fails here.
"""

from __future__ import annotations

import asyncio
import hashlib
from functools import lru_cache

import pytest

from repro import runtime
from repro.dataset import paper_dataset
from repro.eval.engine import DiskResponseStore, EvalEngine
from repro.eval.rq23 import classification_items
from repro.llm import get_model
from repro.prompts.rq1 import build_rq1_prompt, generate_rq1_questions
from repro.roofline.hardware import get_gpu
from repro.types import Boundedness, Language
from repro.serve import AsyncEvalEngine, BreakerPolicy
from repro.serve.providers import EmulatedProvider
from repro.util.faults import FaultPlan
from repro.util.retry import RetryPolicy

MODELS = ("gpt-4o-mini", "o3-mini-high")
_QUESTIONS = generate_rq1_questions(6, seed_key="equivalence-oracle")
CLASSIFY_GPU = "H100"
CLASSIFY_VARIANTS = ("zero-shot", "few-shot-2")


@lru_cache(maxsize=None)
def grid_items() -> tuple:
    """The grid's (item_id, prompt, truth) units, built on first use (the
    classification prompts need the paper dataset)."""
    rq1 = [
        (f"q{i}", build_rq1_prompt(q, shots=2), q.truth)
        for i, q in enumerate(_QUESTIONS)
    ]
    # One kernel per language × label.
    balanced = paper_dataset().balanced
    samples = [
        next(s for s in balanced if s.language is language and s.label is label)
        for language in Language
        for label in Boundedness
    ]
    classify = [
        (f"{variant}:{uid}", prompt, truth)
        for variant in CLASSIFY_VARIANTS
        for uid, prompt, truth in classification_items(
            samples, variant=variant, gpu=get_gpu(CLASSIFY_GPU)
        )
    ]
    return tuple(rq1 + classify)

#: The sync engine's executors: label → the ``jobs`` that selects it.
SYNC_EXECUTORS = (("sequential", 1), ("thread", 4))
STORES = ("off", "cold", "warm")
PATHS = [
    f"{executor}-{store}" for executor, _ in SYNC_EXECUTORS for store in STORES
] + ["async-cold", "async-warm", "partial-rerun"]

FAULT_PLAN = "seed=11;provider_error:rate=0.3,attempts=1"


def grid_digest(results) -> str:
    """One digest over the grid's per-model results, in model order."""
    return hashlib.sha256(
        "\n".join(r.digest() for r in results).encode("ascii")
    ).hexdigest()


def segment_bytes(root) -> dict[str, bytes]:
    DiskResponseStore(root).compact()
    return {p.name: p.read_bytes() for p in sorted(root.glob("responses-*.bin"))}


def sync_grid(engine: EvalEngine):
    return [engine.run(get_model(name), grid_items()) for name in MODELS]


def async_grid(engine: AsyncEvalEngine):
    async def scenario():
        return [
            await engine.run(EmulatedProvider(get_model(name)), grid_items())
            for name in MODELS
        ]

    return asyncio.run(scenario())


def run_path(path: str, root):
    """(grid digest, new completions, the store's root or None)."""
    kind, _, store_mode = path.partition("-")
    if kind == "partial":
        # A sweep that stopped after the first model's units; re-running
        # the whole grid over its store serves those as hits and computes
        # the rest.
        EvalEngine(store=DiskResponseStore(root)).run(
            get_model(MODELS[0]), grid_items()
        )
        engine = EvalEngine(store=DiskResponseStore(root))
        results = sync_grid(engine)
        assert engine.stats.hits == len(grid_items())
        return grid_digest(results), engine.stats.completions, root
    if kind == "async":
        if store_mode == "warm":
            async_grid(AsyncEvalEngine(store=DiskResponseStore(root)))
        engine = AsyncEvalEngine(store=DiskResponseStore(root))
        results = async_grid(engine)
        return grid_digest(results), engine.stats.completions, root
    jobs = dict(SYNC_EXECUTORS)[kind]

    def engine_for(store):
        return EvalEngine(jobs=jobs, store=store)

    if store_mode == "off":
        engine = engine_for(None)
        return grid_digest(sync_grid(engine)), engine.stats.completions, None
    if store_mode == "warm":
        sync_grid(engine_for(DiskResponseStore(root)))
    engine = engine_for(DiskResponseStore(root))
    return grid_digest(sync_grid(engine)), engine.stats.completions, root


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The sequential loop with the store off, plus a cold store's
    segments written by that same loop."""
    root = tmp_path_factory.mktemp("reference")
    digest, _, _ = run_path("sequential-off", root)
    cold_digest, _, cold_root = run_path("sequential-cold", root)
    assert cold_digest == digest
    return digest, segment_bytes(cold_root)


def test_grid_has_no_duplicate_prompts():
    # Duplicates would let thread-pool units race on one key.
    assert len({prompt for _, prompt, _ in grid_items()}) == len(grid_items())


@pytest.mark.parametrize("path", PATHS)
def test_every_path_matches_the_reference(path, reference, tmp_path):
    ref_digest, ref_segments = reference
    digest, completions, root = run_path(path, tmp_path / "store")
    assert digest == ref_digest
    if path.endswith("-warm"):
        assert completions == 0
    elif path == "partial-rerun":
        assert completions == len(grid_items()) * (len(MODELS) - 1)
    else:
        assert completions == len(grid_items()) * len(MODELS)
    if root is not None:
        assert ref_segments and segment_bytes(root) == ref_segments


@pytest.mark.parametrize("executor,jobs", SYNC_EXECUTORS + (("async", 1),))
def test_stats_identical_across_backends_under_faults(
    executor, jobs, tmp_path
):
    runtime.install(fault_plan=FaultPlan.parse(FAULT_PLAN))
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)

    def counters(executor, jobs, root):
        def engine_for(store):
            if executor == "async":
                # One unit at a time, no hedging, and a breaker that opens
                # only on a window of nothing but failures: under the
                # default breaker and 64-wide fan-out, the plan's
                # first-attempt failures land before any success, the
                # breaker opens and the run raises AllProvidersUnavailable.
                return AsyncEvalEngine(
                    store=store,
                    retry=retry,
                    max_concurrency=1,
                    hedge=None,
                    breaker=BreakerPolicy(threshold=1.0),
                )
            return EvalEngine(jobs=jobs, store=store, retry=retry)

        grid = async_grid if executor == "async" else sync_grid
        # Store off (uncached), then cold and warm over one store (misses,
        # then hits): every counter is exercised.
        off = engine_for(None)
        grid(off)
        on = engine_for(DiskResponseStore(root))
        grid(on)
        grid(on)
        return [
            (s.hits, s.misses, s.uncached, s.retries, s.failed)
            for s in (off.stats, on.stats)
        ]

    expected = counters("sequential", 1, tmp_path / "reference")
    (_, _, uncached, off_retries, _), (hits, misses, _, retries, failed) = (
        expected
    )
    assert uncached == misses == hits == len(grid_items()) * len(MODELS)
    assert off_retries == retries > 0 and failed == 0
    assert counters(executor, jobs, tmp_path / executor) == expected
