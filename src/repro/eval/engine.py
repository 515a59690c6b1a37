"""Parallel, cached evaluation engine.

Every experiment in the repo reduces to a grid of *(model, item)* work units:
build a prompt, get one completion, parse one word. This module owns that
hot path as one engine core that every executor drives:

* **Lookup → compute → commit → assemble.** Each unit derives its
  :func:`cache_key` once, looks it up in the store, computes a miss (the
  retry loop under the runtime's fault plan, booking each re-attempt as
  it happens), and commits the outcome (store write plus stats); a run
  is then assembled into records and failures with usage metered in
  item order. :class:`_EngineCore` holds the lookup and commit steps —
  the only code that touches the response store or moves the unit
  counters — and both :class:`EvalEngine` and
  :class:`repro.serve.engine.AsyncEvalEngine` build on it, so every
  execution path yields the same :class:`~repro.eval.runner.RunResult`,
  cache bytes and :class:`CacheStats`.
* **Executors only schedule.** :class:`EvalEngine` runs each unit's
  lookup → compute → commit as one task of
  :func:`~repro.util.parallel.parallel_map`: the plain loop at
  ``jobs=1``, a thread pool above, with deterministic, submission-order
  results either way.
* Completions are memoized in a content-addressed store. Keys are
  :func:`cache_key` digests over the *full* model capability profile, the
  prompt text, and the sampling parameters, so any calibration change or
  prompt edit invalidates exactly the affected entries, and keys are stable
  across processes and machines (SHA-256, no interpreter salt). The
  hardware block of classification prompts rides in the prompt text, so
  per-device scenarios (:mod:`repro.eval.matrix`) cache disjointly for free.
* Stores are injectable (:class:`MemoryResponseStore` for tests and warm
  in-process sweeps, :class:`DiskResponseStore` for cross-run reuse).
  :class:`DiskResponseStore` optionally enforces a size bound by evicting
  oldest-written entries first.

The emulated models are deterministic, so a cache hit is *exact*: the stored
response text and token usage equal what the model would recompute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Protocol, Sequence

from repro.defaults import FAILURE_MODES
from repro.llm.base import LlmModel, LlmResponse
from repro.llm.config import ModelConfig
from repro.llm.pricing import Usage, UsageMeter
from repro import runtime
from repro.store.base import ArtifactStore, Breakdown, CountRow, SegmentView
from repro.util.hashing import stable_hash_bytes
from repro.util.parallel import parallel_map, resolve_jobs
from repro.util.retry import RetryPolicy, TransientError, retry_call

#: Bump when the cached-response record layout changes *incompatibly*.
#: The ``model`` tag (manifest per-model accounting) did not bump it:
#: readers default a missing tag to "" and old readers ignore the extra
#: key, so pre-tag caches keep replaying — untagged entries just render
#: as ``<untagged>`` in the manifest until rewritten.
CACHE_SCHEMA_VERSION = "repro-response-v1"

_RESPONSES_PREFIX = "responses-"

#: The logical key of the response store's one segment, recorded in every
#: run it writes.
RESPONSES_SEGMENT_KEY = "all"


@lru_cache(maxsize=256)
def _config_digest(config: ModelConfig) -> bytes:
    """Digest of every :class:`ModelConfig` field, memoized per config."""
    return stable_hash_bytes(
        *(getattr(config, f.name) for f in dataclasses.fields(config))
    )


def cache_key(
    config: ModelConfig,
    prompt: str,
    temperature: float | None = None,
    top_p: float | None = None,
) -> str:
    """Content address of one completion.

    Hashes every :class:`ModelConfig` field (not just the name) so two
    calibrations of the same model never share entries; ``None`` sampling
    params hash distinctly from explicit values, mirroring
    :meth:`LlmModel.complete`'s defaulting. Keys are SHA-256 based —
    stable across processes and machines. This sits on the warm-cache hot
    path, hence the flat hashlib composition over the memoized config
    digest rather than a generic ``stable_hash_hex`` call.
    """
    h = hashlib.sha256()
    h.update(CACHE_SCHEMA_VERSION.encode("ascii"))
    h.update(_config_digest(config))
    data = prompt.encode("utf-8")
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)
    h.update(repr((temperature, top_p)).encode("ascii"))
    return h.hexdigest()


@dataclass(frozen=True)
class CachedResponse:
    """The persistable payload of one completion."""

    text: str
    input_tokens: int
    output_tokens: int
    reasoning_tokens: int
    model: str = ""

    @classmethod
    def from_response(cls, response: LlmResponse) -> "CachedResponse":
        u = response.usage
        return cls(
            text=response.text,
            input_tokens=u.input_tokens,
            output_tokens=u.output_tokens,
            reasoning_tokens=u.reasoning_tokens,
            model=response.model_name,
        )

    def to_response(self, model_name: str) -> LlmResponse:
        return LlmResponse(
            text=self.text,
            usage=Usage(
                input_tokens=self.input_tokens,
                output_tokens=self.output_tokens,
                reasoning_tokens=self.reasoning_tokens,
            ),
            model_name=model_name,
        )

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "reasoning_tokens": self.reasoning_tokens,
            "model": self.model,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CachedResponse":
        return cls(
            text=data["text"],
            input_tokens=int(data["input_tokens"]),
            output_tokens=int(data["output_tokens"]),
            reasoning_tokens=int(data["reasoning_tokens"]),
            model=str(data.get("model", "")),
        )


class ResponseStore(Protocol):
    """Injectable key → response storage."""

    def get(self, key: str) -> CachedResponse | None: ...

    def put(self, key: str, value: CachedResponse) -> None: ...

    def __len__(self) -> int: ...

    def clear(self) -> None: ...


class MemoryResponseStore:
    """In-process store (tests, single-run warm sweeps).

    Single dict get/set operations are atomic under the GIL, so the hot
    path is lock-free; the worst concurrent-writer outcome is two threads
    installing identical content for the same key.
    """

    def __init__(self) -> None:
        self._data: dict[str, CachedResponse] = {}

    def get(self, key: str) -> CachedResponse | None:
        return self._data.get(key)

    def put(self, key: str, value: CachedResponse) -> None:
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class DiskResponseStore(ArtifactStore):
    """Packed binary response runs: the whole store is one logical segment.

    Every flush installs one immutable run holding just its batch, so a
    deferred sweep writes each entry once (plus the bounded copies of
    compaction) instead of rewriting whole segments, and a warm sweep
    resolves each hit with one in-memory index probe and one per-entry
    JSON decode. Concurrent writers — threads in one engine or separate
    processes sharing a cache directory — never read-merge-write, so
    none can erase another's entries.

    Runs are the only files the store reads or owns: per-entry
    ``root/xx/<key>.json`` files left by older versions are foreign, so
    their keys miss and recompute, and the files stay untouched.

    Pass ``max_bytes`` for a size-bounded store: when the total store size
    exceeds the bound, oldest-written runs are evicted first. ``0``
    keeps nothing; ``None`` is unbounded; negative bounds are rejected
    (see :class:`~repro.store.base.ArtifactStore`).
    """

    version = CACHE_SCHEMA_VERSION
    segment_prefixes = (_RESPONSES_PREFIX,)
    count_rows = (CountRow("entries", _RESPONSES_PREFIX),)
    breakdown = Breakdown(
        _RESPONSES_PREFIX, "model", of="entry", unnamed="<untagged>"
    )
    age_row = True

    #: Inside ``deferred()`` (one engine sweep), write pending entries out
    #: as a run every this many puts. This spill is the sweep's checkpoint:
    #: a crash mid-sweep loses at most one interval of completions, and
    #: re-running the same command replays every spilled unit as a hit.
    DEFERRED_FLUSH_ENTRIES = 64

    def _live_view(self, path: Path) -> SegmentView | None:
        # The 2-hex shard segments written before runs record their shard
        # as the key: stale, like a version skew, so eviction reclaims them.
        view = super()._live_view(path)
        if view is None or view.payload["key"] != RESPONSES_SEGMENT_KEY:
            return None
        return view

    # -- the ResponseStore protocol ------------------------------------------
    def get(self, key: str) -> CachedResponse | None:
        raw = self._get_entries(
            _RESPONSES_PREFIX, RESPONSES_SEGMENT_KEY, (key,)
        ).get(key)
        if not isinstance(raw, dict):
            return None
        try:
            return CachedResponse.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, value: CachedResponse) -> None:
        self._merge_entries(
            _RESPONSES_PREFIX,
            RESPONSES_SEGMENT_KEY,
            {"version": CACHE_SCHEMA_VERSION},
            {key: value.to_dict()},
        )

    def _live_blobs(self) -> dict[str, bytes]:
        """key → canonical entry bytes for every live entry."""
        segments = self._live_views()
        seg = segments.get((_RESPONSES_PREFIX, RESPONSES_SEGMENT_KEY))
        if seg is None:
            return {}
        blobs: dict[str, bytes] = {}
        for key, view in seg.where.items():
            blob = view.blob(key)
            if blob is not None:
                blobs[key] = blob
        return blobs

    def __len__(self) -> int:
        return len(self._live_blobs())

    def iter_entries(self):
        """Yield ``(key, canonical JSON bytes)`` per live entry, key-sorted.

        The raw-bytes view of the store used by cache merging
        (:func:`repro.eval.shard.merge_caches`): entry blobs are canonical
        (sorted keys, deterministic JSON), so byte equality means value
        equality.
        """
        blobs = self._live_blobs()
        for key in sorted(blobs):
            yield key, blobs[key]

    def get_blob(self, key: str) -> bytes | None:
        """One live entry's canonical JSON bytes (pending batch or run),
        or ``None`` — the merge conflict check."""
        return self._get_entries(
            _RESPONSES_PREFIX, RESPONSES_SEGMENT_KEY, (key,), raw=True
        ).get(key)

    # -- merge provenance ---------------------------------------------------
    def record_provenance(self, mapping: dict[str, str]) -> None:
        """Merge ``mapping`` into the provenance sidecar (atomic write).

        Repeated merges into the same store accumulate. ``mapping`` holds
        only keys the caller just installed, so its labels win over stale
        sidecar entries (a key evicted and later re-installed from another
        source belongs to the new source); keys whose entry file no longer
        exists are pruned so eviction/wipe cycles can't grow the sidecar.
        """
        if not mapping:
            return
        self.flush()
        merged = {
            key: label
            for key, label in self.provenance().items()
            if self.get_blob(key) is not None
        }
        merged.update(mapping)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self._provenance_path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(
                json.dumps({"version": 1, "sources": merged}, sort_keys=True),
                encoding="utf-8",
            )
            os.replace(tmp, self._provenance_path)
        except OSError:
            return  # provenance is advisory; never fail the merge over it

    def clear(self) -> None:
        super().clear()
        try:
            self._provenance_path.unlink()
        except OSError:
            pass  # absent on non-merged stores


@dataclass
class CacheStats:
    """Hit/miss accounting for one engine; misses == new model completions."""

    hits: int = 0
    misses: int = 0
    uncached: int = 0  # completions issued with no store attached
    retries: int = 0  # upstream re-attempts after retryable failures
    failed: int = 0  # units that exhausted retries (collect mode)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @property
    def completions(self) -> int:
        """Completions actually computed by a model (not served from cache)."""
        return self.misses + self.uncached

    @property
    def total(self) -> int:
        return self.hits + self.misses + self.uncached

    def _bump(self, field_name: str, count: int = 1) -> int:
        """Add ``count`` to one counter; returns its new value."""
        with self._lock:
            value = getattr(self, field_name) + count
            setattr(self, field_name, value)
            return value

    def summary(self) -> str:
        out = (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.completions} new completions"
        )
        if self.failed:
            out += f", {self.failed} failed"
        return out


#: The sync engine's default schedule. The in-process emulated models are
#: deterministic — only injected faults (or future real-API adapters) ever
#: fail transiently — so delays stay tiny; serve keeps its own defaults.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_s=0.01, max_delay_s=0.25
)


def resolve_failure_mode(mode: str) -> str:
    if mode not in FAILURE_MODES:
        raise ValueError(
            f"unknown failure_mode {mode!r} (valid: {', '.join(FAILURE_MODES)})"
        )
    return mode


class MaxFailuresExceeded(RuntimeError):
    """A collect-mode sweep hit its ``max_failures`` abort threshold."""

    def __init__(self, threshold: int):
        super().__init__(
            f"aborting sweep: {threshold} unit(s) exhausted their retries "
            f"(--max-failures {threshold})"
        )
        self.threshold = threshold


@dataclass(frozen=True)
class _FailedCompletion:
    """The marker a collect-mode unit yields instead of a response."""

    error_type: str
    error: str
    attempts: int


class _EngineCore:
    """Lookup and commit, shared by both engines: the only code that
    touches the response store or moves the unit counters."""

    store: ResponseStore | None
    stats: CacheStats
    max_failures: int | None = None

    def _lookup(self, key: str) -> CachedResponse | None:
        """The stored response for ``key`` (booked as a hit), or ``None``."""
        if self.store is None:
            return None
        cached = self.store.get(key)
        if cached is not None:
            self.stats._bump("hits")
        return cached

    def _commit(
        self, key: str, outcome: CachedResponse | _FailedCompletion
    ) -> CachedResponse | _FailedCompletion:
        """Book one computed unit and store its response; returns it.
        An exhausted unit raises at the ``max_failures`` threshold."""
        if isinstance(outcome, _FailedCompletion):
            failed = self.stats._bump("failed")
            if self.max_failures is not None and failed >= self.max_failures:
                raise MaxFailuresExceeded(self.max_failures)
        elif self.store is None:
            self.stats._bump("uncached")
        else:
            self.store.put(key, outcome)
            self.stats._bump("misses")
        return outcome

    def _batched(self):
        """Batch a run's store writes: one new run per flush interval
        instead of one per completion. Stores
        without deferral (:class:`MemoryResponseStore`, test doubles) run
        as-is."""
        deferred = getattr(self.store, "deferred", None)
        return deferred() if deferred is not None else nullcontext()


class EvalEngine(_EngineCore):
    """Fans (model, item) work units over a worker pool, memoizing responses.

    One engine instance is meant to span a whole experiment (or several: a
    Table 1 run shares one engine across all models and RQs), so its
    :attr:`stats` describe the sweep and its store amortises repeated
    prompts across experiments.

    ``jobs`` is the only executor setting: :meth:`run` fans units over
    the plain loop at ``jobs=1`` and a thread pool above it; results,
    cache contents and every stats counter are identical at any value.
    The ``backend`` keyword and attribute exist only for the benchmark
    harness in ``perfbench/``, which still passes and reads
    ``"thread"``; any other value raises :class:`ValueError`.

    Fault tolerance: every completion attempt runs under ``retry`` (a
    :class:`~repro.util.retry.RetryPolicy`; jitter hashed from the unit's
    cache key and the attempt, so retried sweeps reproduce), and each
    re-attempt is booked in ``stats.retries`` as it happens. ``failure_mode``
    decides what happens when a unit *exhausts* its retries —
    ``"fail_fast"`` (default) propagates and cancels the fan-out,
    ``"collect"`` records it as a
    :class:`~repro.eval.runner.FailedUnit` on the result and keeps going,
    aborting with :class:`MaxFailuresExceeded` once ``max_failures``
    units have failed. A ``retry`` with ``timeout_s`` raises
    :class:`ValueError` here: a blocking attempt cannot be cancelled, so
    attempt deadlines belong to the async engine.

    Resuming an interrupted sweep is a plain re-run over the same store:
    the store spills a run every
    :attr:`DiskResponseStore.DEFERRED_FLUSH_ENTRIES` puts inside
    :meth:`run`, and every spilled unit replays as a hit.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        store: ResponseStore | None = None,
        backend: str = "thread",
        retry: RetryPolicy | None = None,
        failure_mode: str = "fail_fast",
        max_failures: int | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = store
        if backend != "thread":
            raise ValueError(
                f"unknown executor backend {backend!r}; --jobs alone sets "
                "parallelism"
            )
        self.backend = backend
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        if self.retry.timeout_s is not None:
            raise ValueError(
                "EvalEngine cannot enforce retry timeout_s: attempt "
                "deadlines need the async engine"
            )
        self.failure_mode = resolve_failure_mode(failure_mode)
        if max_failures is not None and max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {max_failures}")
        self.max_failures = max_failures
        self.stats = CacheStats()

    # -- single completion ---------------------------------------------------
    def complete(
        self,
        model: LlmModel,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ) -> LlmResponse:
        """One completion, served from the store when possible."""
        return self._unit(model, temperature, top_p, False, prompt)

    def _unit(
        self,
        model: LlmModel,
        temperature: float | None,
        top_p: float | None,
        collect: bool,
        prompt: str,
    ) -> LlmResponse | _FailedCompletion:
        """Lookup → compute → commit for one unit, in this thread.

        A miss runs the retry loop under the runtime's fault plan, booking
        each re-attempt as it happens. The cache key is the loop's jitter
        token, so backoff reproduces however the fan-out schedules the
        unit, and selects the unit's faults. In ``collect`` mode an
        exhausted transient failure commits as a :class:`_FailedCompletion`
        marker instead of raising; anything non-transient still
        propagates — that's a bug, not weather.
        """
        key = cache_key(model.config, prompt, temperature, top_p)
        outcome = self._lookup(key)
        if outcome is None:
            plan = runtime.current().fault_plan

            def attempt(index: int) -> CachedResponse:
                if plan is not None:
                    plan.completion_fault(key, index)
                return CachedResponse.from_response(
                    model.complete(prompt, temperature=temperature, top_p=top_p)
                )

            try:
                outcome = retry_call(
                    attempt,
                    policy=self.retry,
                    token=key,
                    on_retry=lambda _attempt, _exc: self.stats._bump("retries"),
                )
            except TransientError as exc:
                if not collect:
                    raise
                # Only the last of max_attempts failures escapes the loop.
                outcome = _FailedCompletion(
                    type(exc).__name__, str(exc), self.retry.max_attempts
                )
            self._commit(key, outcome)
        if isinstance(outcome, _FailedCompletion):
            return outcome
        return outcome.to_response(model.name)

    # -- batched evaluation --------------------------------------------------
    def run(
        self,
        model: LlmModel,
        items: Sequence[tuple[str, str, object]],
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ):
        """Evaluate ``items`` of (item_id, prompt, truth) against one model.

        Drop-in replacement for the old sequential loop in
        :mod:`repro.eval.runner`: identical records in identical order, and
        usage metered in item order so cost floats sum identically at any
        ``jobs`` — and across a crash: a re-run that
        replays the units spilled before it assembles the same result as
        an uninterrupted one.
        """
        items = list(items)
        if not items:
            raise ValueError("no items to run")
        unit = partial(
            self._unit, model, temperature, top_p,
            self.failure_mode == "collect",
        )
        with self._batched():
            responses = parallel_map(
                unit, [prompt for _, prompt, _ in items], jobs=self.jobs
            )
        return _assemble(model, items, responses)


def _assemble(model, items: Sequence[tuple[str, str, object]], responses):
    """Responses (or failure markers) → the run's
    :class:`~repro.eval.runner.RunResult`.

    Shared by both engines, so records, failures and usage — metered in
    item order, so cost floats sum identically — are byte-identical
    however the responses were produced. ``model`` is anything with the
    ``name`` and ``config`` of the model that answered.
    """
    from repro.eval.runner import FailedUnit, PredictionRecord, RunResult

    records = []
    failures = []
    meter = UsageMeter(model.config)
    for (item_id, _, truth), response in zip(items, responses):
        if isinstance(response, _FailedCompletion):
            failures.append(
                FailedUnit(
                    item_id=item_id,
                    error_type=response.error_type,
                    error=response.error,
                    attempts=response.attempts,
                )
            )
            continue
        try:
            prediction = response.boundedness()
        except ValueError:
            prediction = None
        records.append(
            PredictionRecord(
                item_id=item_id,
                truth=truth,
                prediction=prediction,
                response_text=response.text,
            )
        )
        meter.record(response.usage)
    return RunResult(
        model_name=model.name,
        records=tuple(records),
        usage=meter.summary(),
        failures=tuple(failures),
    )

