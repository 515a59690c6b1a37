"""Sharded sweeps: split the (model × RQ × GPU × kernel) grid across machines.

A cold hardware-matrix sweep is the repo's dominant wall-clock cost: every
(model, RQ, GPU, kernel) cell item is one completion. This module scales it
past one machine by making the content-addressed response cache the only
coordination point — SHA-256 keys merge cleanly by construction, so workers
never need to talk to each other:

* :func:`plan_shards` partitions the work grid into ``N`` balanced shards.
  The plan is *deterministic*: units are canonically sorted, then dealt
  round-robin, so the same grid always yields the same plan regardless of
  input order or of how many worker threads each machine will use. Every
  worker can therefore compute the full plan locally and execute just its
  own slice (``repro-paper sweep --shard I/N``).
* :func:`run_shard` executes one shard, writing completions into that
  worker's isolated cache. Prompts are built by the same
  :func:`repro.eval.rq23.classification_items` path as the single-machine
  sweep, so shard cache keys are exactly the keys a single run would write.
* :func:`merge_caches` unions shard caches into one store
  (``repro-paper merge-caches``), copying entry blobs byte-verbatim into
  the destination's runs, refusing conflicting values under one key,
  recording shard provenance in a sidecar manifest, and honoring a size
  bound. For a partitioned grid the merged store equals the single-machine
  store entry-for-entry (and, runs being canonically encoded, file-for-file
  once both are compacted), so a sweep replayed over it issues **zero** new
  completions and reproduces the matrix report byte-identically.

Interrupted or lost shards are cheap: re-running a shard replays its
finished work from its cache and computes only what's missing.

Shard execution profiles its kernels through the same batched two-phase
path as single-machine sweeps (:func:`repro.eval.matrix.scenario_samples`
→ :func:`repro.gpusim.profile_programs`), so shard subprocesses sharing a
persistent profile store (``--profile-cache`` / ``$REPRO_PROFILE_CACHE``)
skip the symbolic IR walk entirely once any one of them has warmed it.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro import runtime
from repro.eval.engine import CachedResponse, DiskResponseStore, EvalEngine
from repro.eval.matrix import grid_uids, scenario_samples
from repro.eval.rq23 import classification_items, regime_variant
from repro.llm.base import LlmModel
from repro.roofline.hardware import GpuSpec, short_gpu_name
from repro.util.parallel import round_robin_partition
from repro.util.tables import format_table


def parse_shard_spec(spec: str) -> tuple[int, int]:
    """Parse an ``I/N`` shard spec into ``(index, count)``.

    ``index`` must lie in ``[0, count)`` and ``count`` must be positive —
    the CLI convention (``--shard 1/3`` = the second of three shards).
    """
    text = str(spec).strip()
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard spec {spec!r} is not of the form I/N (e.g. 0/3)"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} out of range for {count} shards"
        )
    return index, count


@dataclass(frozen=True, order=True)
class WorkUnit:
    """One completion of the sweep grid: a kernel in a (model, GPU, RQ) cell.

    Ordered lexicographically — the canonical order :func:`plan_shards`
    sorts into before dealing units out.
    """

    model_name: str
    gpu_name: str
    rq: str  # regime label: "rq2" | "rq3" | a prompt-variant name
    uid: str


def grid_units(
    model_names: Sequence[str],
    gpu_names: Sequence[str],
    rqs: Sequence[str],
    uids: Sequence[str],
) -> tuple[WorkUnit, ...]:
    """Every work unit of one sweep grid (the full cartesian product)."""
    return tuple(
        WorkUnit(model_name=m, gpu_name=g, rq=rq, uid=uid)
        for g in gpu_names
        for m in model_names
        for rq in rqs
        for uid in uids
    )


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a work grid into ``num_shards`` slices."""

    num_shards: int
    shards: tuple[tuple[WorkUnit, ...], ...]

    @property
    def total_units(self) -> int:
        return sum(len(s) for s in self.shards)

    def shard(self, index: int) -> tuple[WorkUnit, ...]:
        if not 0 <= index < self.num_shards:
            raise IndexError(
                f"shard index {index} out of range for {self.num_shards} shards"
            )
        return self.shards[index]


def plan_shards(units: Iterable[WorkUnit], num_shards: int) -> ShardPlan:
    """Partition ``units`` into ``num_shards`` balanced, stable shards.

    Canonical sort, then round-robin deal — which guarantees, and the
    property suite pins: shards are pairwise disjoint, cover every unit,
    differ in size by at most one, and the plan depends only on the unit
    *set* and ``num_shards`` (input order and executor worker counts are
    irrelevant). The interleaving also spreads each (model, GPU, RQ) cell
    across shards, so uneven per-cell costs balance out.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ordered = sorted(units)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"duplicate work unit in grid: {a}")
    return ShardPlan(
        num_shards=num_shards,
        shards=tuple(
            tuple(bucket)
            for bucket in round_robin_partition(ordered, num_shards)
        ),
    )


@dataclass(frozen=True)
class ShardCellSlice:
    """One (model, GPU, RQ) cell's share of a shard."""

    model_name: str
    gpu_name: str
    rq: str
    items: int


@dataclass(frozen=True)
class ShardRunReport:
    """What one :func:`run_shard` call executed."""

    shard_index: int
    num_shards: int
    total_units: int  # whole-grid size, for "my share of" context
    cells: tuple[ShardCellSlice, ...]

    @property
    def units(self) -> int:
        return sum(c.items for c in self.cells)

    def render(self) -> str:
        rows = [
            [c.model_name, short_gpu_name(c.gpu_name), c.rq, c.items]
            for c in self.cells
        ]
        return format_table(
            ["Model", "GPU", "RQ", "Items"],
            rows,
            title=(
                f"Shard {self.shard_index}/{self.num_shards} — "
                f"{self.units} of {self.total_units} grid units"
            ),
        )


def run_shard(
    models: Sequence[LlmModel],
    gpus: Sequence[GpuSpec],
    *,
    shard_index: int,
    num_shards: int,
    rqs: Sequence[str] = ("rq2",),
    limit: int = 0,
    engine: EvalEngine | None = None,
) -> ShardRunReport:
    """Execute one planned shard of the (model × RQ × GPU × kernel) grid.

    The shard's product is its cache contents (record outputs are
    discarded — the merged cache replays the full sweep later), so the
    engine should carry a disk store. Only the shard's own kernels are
    profiled per device, and a re-run replays finished units from the
    cache, computing just what's missing.
    """
    variants = {rq: regime_variant(rq) for rq in rqs}
    if len({v.name for v in variants.values()}) != len(rqs):
        raise ValueError(f"duplicate matrix regimes in {tuple(rqs)}")
    if not gpus:
        raise ValueError("no GPUs selected")
    if not models:
        raise ValueError("no models selected")
    engine = engine or EvalEngine()

    uids = grid_uids(limit, jobs=engine.jobs)
    plan = plan_shards(
        grid_units(
            [m.name for m in models],
            [g.name for g in gpus],
            tuple(rqs),
            uids,
        ),
        num_shards,
    )
    mine = plan.shard(shard_index)

    model_by_name = {m.name: m for m in models}
    gpu_by_name = {g.name: g for g in gpus}
    grouped: dict[tuple[str, str, str], list[str]] = {}
    for unit in mine:
        cell = (unit.model_name, unit.gpu_name, unit.rq)
        grouped.setdefault(cell, []).append(unit.uid)

    # Samples depend only on (gpu, kernel), so profile each device once for
    # the shard's per-device uid union and slice per cell — not once per
    # (model, RQ) cell, which would redo identical profiling work (and
    # memoize every distinct subset) model-count × RQ-count times.
    uids_by_gpu: dict[str, list[str]] = {}
    for (_, gpu_name, _), cell_uids in grouped.items():
        union = uids_by_gpu.setdefault(gpu_name, [])
        union.extend(u for u in cell_uids if u not in union)
    rt = runtime.current()
    cells = []
    with ExitStack() as stack:
        # Batch the whole shard's profile/artifact-store writes: one new
        # run per segment at block exit (or per flush interval) instead of
        # one per device pass. The response store batches per engine.run
        # call already.
        for batched in (rt.profile_store, rt.artifact_cache):
            if batched is not None:
                stack.enter_context(batched.deferred())
        samples_by_gpu = {
            gpu_name: {
                s.uid: s
                for s in scenario_samples(
                    gpu_by_name[gpu_name], uids=tuple(sorted(union)),
                    jobs=engine.jobs,
                )
            }
            for gpu_name, union in uids_by_gpu.items()
        }

        for (model_name, gpu_name, rq), cell_uids in grouped.items():
            gpu = gpu_by_name[gpu_name]
            samples = [samples_by_gpu[gpu_name][uid] for uid in cell_uids]
            items = classification_items(
                samples, variant=variants[rq], gpu=gpu
            )
            engine.run(model_by_name[model_name], items)
            cells.append(
                ShardCellSlice(
                    model_name=model_name,
                    gpu_name=gpu_name,
                    rq=rq,
                    items=len(items),
                )
            )
    return ShardRunReport(
        shard_index=shard_index,
        num_shards=num_shards,
        total_units=plan.total_units,
        cells=tuple(cells),
    )


class CacheMergeConflict(RuntimeError):
    """Two caches disagree about the value under one content-addressed key.

    Impossible for shards of one grid (keys hash the full model profile and
    prompt, and the emulated models are deterministic) — so a conflict
    means the caches were built from different calibrations or prompt
    versions, and merging them would silently corrupt results.
    """

    def __init__(self, key: str, source: str, dest: str):
        super().__init__(
            f"merge conflict on key {key}: the entry in {source} does not "
            f"match the entry already in {dest}; these caches were built "
            "from different model calibrations or prompt versions"
        )
        self.key = key
        self.source = source


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_caches` call did."""

    dest: str
    merged: int  # entries newly installed in dest
    duplicates: int  # keys already present with identical bytes
    evicted: int  # entries removed to honor the size bound
    per_source: tuple[tuple[str, int], ...]  # (label, entries contributed)
    empty_sources: tuple[str, ...]  # missing or entry-less source dirs

    def render(self) -> str:
        lines = [
            f"merged into {self.dest}: {self.merged} new entries, "
            f"{self.duplicates} duplicates"
        ]
        for label, count in self.per_source:
            lines.append(f"  {label}: +{count}")
        if self.empty_sources:
            lines.append(
                "empty or missing sources: " + ", ".join(self.empty_sources)
            )
        if self.evicted:
            lines.append(
                f"evicted {self.evicted} entries to honor the size bound"
            )
        return "\n".join(lines)


def merge_caches(
    sources: Sequence[str | Path],
    dest: str | Path,
    *,
    max_bytes: int | None = None,
) -> MergeReport:
    """Union shard caches into one store.

    Entry *blobs* are copied byte-verbatim into the destination's runs,
    so for a partitioned grid the merged store equals the single-machine
    store entry-for-entry, and once both are compacted
    (:meth:`~repro.store.base.ArtifactStore.compact`) run-file-for-run-file.
    A key present in the destination or an
    earlier source must carry identical bytes — anything else raises
    :class:`CacheMergeConflict` rather than silently corrupting results.
    Missing or empty sources are tolerated (an interrupted shard simply
    contributes nothing; the report names it). Each installed entry's
    source is recorded in the destination's provenance sidecar, surfaced by
    ``repro-paper cache``; with ``max_bytes``, oldest-written runs are
    evicted after the union.
    """
    # Unbounded during the union: the size bound applies once at the end,
    # so mid-merge flushes never evict entries a later source still needs
    # for byte-conflict checks.
    dest_store = DiskResponseStore(dest)
    merged = duplicates = 0
    per_source: list[tuple[str, int]] = []
    empty: list[str] = []
    provenance: dict[str, str] = {}
    # A conflict aborts the merge but must not lose the entries installed
    # so far: deferred() discards its buffer on an exceptional exit, so
    # the conflict is caught *inside* the block and re-raised after the
    # clean exit has flushed. A retry without the bad source then sees the
    # kept entries as duplicates, with their provenance intact.
    conflict: CacheMergeConflict | None = None
    try:
        with dest_store.deferred():
            for source in sources:
                label = str(source)
                contributed = 0
                entries = list(DiskResponseStore(source).iter_entries())
                if not entries:
                    empty.append(label)
                    per_source.append((label, 0))
                    continue
                for key, blob in entries:
                    existing = dest_store.get_blob(key)
                    if existing is not None:
                        if existing != blob:
                            conflict = CacheMergeConflict(
                                key, label, str(dest)
                            )
                            break
                        duplicates += 1
                        continue
                    try:
                        value = CachedResponse.from_dict(json.loads(blob))
                    except (KeyError, TypeError, ValueError):
                        continue  # unreadable source entry: an empty slot
                    dest_store.put(key, value)
                    provenance[key] = label
                    contributed += 1
                    merged += 1
                if conflict is not None:
                    break
                per_source.append((label, contributed))
    finally:
        dest_store.record_provenance(provenance)
    if conflict is not None:
        raise conflict
    evicted = dest_store.evict(max_bytes) if max_bytes is not None else 0
    return MergeReport(
        dest=str(dest),
        merged=merged,
        duplicates=duplicates,
        evicted=evicted,
        per_source=tuple(per_source),
        empty_sources=tuple(empty),
    )
