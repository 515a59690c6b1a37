"""Hardware scenario matrix: one experiment grid, many rooflines.

The paper profiles and prompts against a single GPU (RTX 3080), but its
central question — can LLMs reason about hardware ceilings? — is only
testable across *different* rooflines. This module fans a
(model × RQ × GPU) grid over the shared :class:`~repro.eval.engine.EvalEngine`:

* :func:`scenario_samples` re-profiles the corpus on any
  :class:`~repro.roofline.hardware.GpuSpec` and re-labels each kernel
  against that device's rooflines, keeping the *same kernel subset* (the
  paper's balanced 340) on every device so results are comparable cell to
  cell.
* :func:`run_matrix` evaluates every (model, RQ, GPU) cell. Prompts embed
  the scenario GPU's hardware block, so the content-addressed response
  cache keeps per-device entries disjoint with no extra keying.
* :class:`MatrixResult` reports per-cell accuracy plus a **label-flip
  report**: which kernels change compute-/bandwidth-bound classification
  between rooflines (e.g. FP64-heavy kernels that are compute-bound on a
  gaming part but bandwidth-bound on an HPC part), and whether each model
  *tracks* the flip — predicting the device-specific truth on every GPU
  rather than answering from the code alone.

Classification truth is device-dependent; RQ1's random-roofline arithmetic
and RQ4's fine-tune are not, so the matrix covers the RQ2 (zero-shot) and
RQ3 (two-shot) regimes — plus any registered
:class:`~repro.prompts.variants.PromptVariant` name as an extra
prompt-ablation regime (``no-hint``, ``problem-hint``, ``few-shot-k``…):
a regime label is either an RQ alias or a variant name, and
:func:`repro.eval.rq23.regime_variant` resolves both onto the prompt layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.dataset import Sample, paper_dataset
from repro.dataset.build import build_sample
from repro.eval.engine import EvalEngine
from repro.eval.rq23 import classification_items, regime_variant
from repro.eval.runner import RunResult, run_queries
from repro.gpusim import device_for
from repro.kernels.corpus import default_corpus
from repro.llm.base import LlmModel
from repro.llm.registry import all_models
from repro.roofline.hardware import GPU_DATABASE, GpuSpec, short_gpu_name
from repro.tokenizer import corpus_tokenizer
from repro.types import Boundedness
from repro.util.parallel import parallel_map
from repro.util.tables import format_table

#: Memoized device-specific sample sets, keyed by (gpu spec, uid subset).
#: Keyed by the frozen spec itself (like :func:`repro.gpusim.device_for`),
#: so a tweaked spec sharing a marketing name never aliases.
_SCENARIO_MEMO: dict[tuple[GpuSpec, tuple[str, ...]], tuple[Sample, ...]] = {}


def scenario_samples(
    gpu: GpuSpec,
    *,
    uids: Sequence[str] | None = None,
    jobs: int = 1,
) -> tuple[Sample, ...]:
    """The balanced dataset re-profiled and re-labelled for one GPU.

    ``uids`` defaults to the paper's balanced subset (same kernels on every
    device, in the same order — the invariant the flip report relies on);
    an explicit ``uids`` subset profiles only those programs. Either way
    the profiles come from one batched two-phase
    :func:`repro.gpusim.profile_programs` pass: the device-independent IR
    walk is shared across every scenario GPU (and with the dataset
    pipeline), only the cheap per-device finalize runs per roofline, and a
    warm profile store serves whole device batches with zero walks. The
    render/token-count half is device-independent too and comes from the
    shared :func:`repro.dataset.text.program_texts` pass — a 6-device
    sweep renders and tokenizes each program once, not six times.
    Profiling is deterministic per (kernel, device), so the result is
    memoized per (gpu, subset) and stable across calls and processes.
    """
    from repro.dataset.text import program_texts
    from repro.gpusim import profile_programs

    corpus = default_corpus()
    if uids is None:
        uids = [s.uid for s in paper_dataset(jobs=jobs).balanced]
    key = (gpu, tuple(uids))
    hit = _SCENARIO_MEMO.get(key)
    if hit is not None:
        return hit
    device = device_for(gpu)
    tokenizer = corpus_tokenizer()
    programs = [corpus.get(uid) for uid in uids]
    profiles = profile_programs(programs, device, jobs=jobs)
    texts = program_texts(programs, tokenizer, jobs=jobs)
    samples = tuple(
        parallel_map(
            lambda p: build_sample(
                p, device, tokenizer, profile=profiles[p.uid],
                text=texts[p.uid],
            ),
            programs,
            jobs=jobs,
        )
    )
    _SCENARIO_MEMO[key] = samples
    return samples


def grid_uids(limit: int = 0, *, jobs: int = 1) -> tuple[str, ...]:
    """The kernel subset of one sweep grid: the paper's balanced set,
    optionally truncated to its first ``limit`` uids.

    The same subset is used on every device (keeping flips well-defined)
    and by every shard of a distributed sweep (keeping shard plans and
    cache contents aligned with the single-machine run). A negative
    ``limit`` raises ``ValueError``.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    balanced = paper_dataset(jobs=jobs).balanced
    uids = tuple(s.uid for s in balanced)
    return uids[:limit] if limit else uids


@dataclass(frozen=True)
class MatrixCell:
    """One (model, regime, GPU) evaluation."""

    model_name: str
    gpu_name: str
    rq: str  # regime label: "rq2" | "rq3" | a prompt-variant name
    run: RunResult

    @property
    def accuracy(self) -> float:
        return self.run.accuracy


@dataclass(frozen=True)
class KernelFlip:
    """One kernel whose ground-truth label differs between rooflines."""

    uid: str
    labels: tuple[tuple[str, Boundedness], ...]  # (gpu name, truth), scenario order

    def label_on(self, gpu_name: str) -> Boundedness:
        for name, label in self.labels:
            if name == gpu_name:
                return label
        raise KeyError(gpu_name)

    @property
    def distinct_labels(self) -> frozenset[Boundedness]:
        return frozenset(label for _, label in self.labels)


@dataclass(frozen=True)
class FlipTracking:
    """How well one (model, RQ) tracks the flip kernels across devices.

    ``tracked`` counts flip kernels the model classifies correctly on
    *every* scenario GPU — the only way to be right on both sides of a
    flip is to actually use the hardware block, not just the code.
    """

    model_name: str
    rq: str
    tracked: int
    total: int

    @property
    def rate(self) -> float:
        return self.tracked / self.total if self.total else 0.0


@dataclass(frozen=True)
class MatrixResult:
    """The full sweep: cells, flip report, and renderers."""

    gpu_names: tuple[str, ...]
    model_names: tuple[str, ...]
    rqs: tuple[str, ...]
    num_kernels: int
    cells: tuple[MatrixCell, ...]
    flips: tuple[KernelFlip, ...]

    @cached_property
    def _cell_index(self) -> dict[tuple[str, str, str], MatrixCell]:
        return {(c.model_name, c.gpu_name, c.rq): c for c in self.cells}

    def cell(self, model_name: str, gpu_name: str, rq: str) -> MatrixCell:
        try:
            return self._cell_index[(model_name, gpu_name, rq)]
        except KeyError:
            raise KeyError((model_name, gpu_name, rq)) from None

    # -- flip tracking -------------------------------------------------------
    def _predictions(self, model_name: str, rq: str) -> dict[str, dict[str, object]]:
        """uid → {gpu name → predicted label} for one (model, RQ)."""
        out: dict[str, dict[str, object]] = {}
        for gpu_name in self.gpu_names:
            for record in self.cell(model_name, gpu_name, rq).run.records:
                out.setdefault(record.item_id, {})[gpu_name] = record.prediction
        return out

    @cached_property
    def _tracked_uids(self) -> dict[tuple[str, str], frozenset[str]]:
        """(model, RQ) → flip kernels predicted correctly on every device.

        Computed once per result (the records are immutable); both the
        tracking and flip tables read from this.
        """
        out: dict[tuple[str, str], frozenset[str]] = {}
        for model_name in self.model_names:
            for rq in self.rqs:
                preds = self._predictions(model_name, rq)
                out[(model_name, rq)] = frozenset(
                    flip.uid
                    for flip in self.flips
                    if all(
                        preds.get(flip.uid, {}).get(gpu) == truth
                        for gpu, truth in flip.labels
                    )
                )
        return out

    def flip_tracking(self) -> list[FlipTracking]:
        """Per (model, RQ): how many flip kernels are right on every device."""
        return [
            FlipTracking(
                model_name=model_name,
                rq=rq,
                tracked=len(self._tracked_uids[(model_name, rq)]),
                total=len(self.flips),
            )
            for model_name in self.model_names
            for rq in self.rqs
        ]

    def digest(self) -> str:
        """SHA-256 over the whole sweep (axes, per-cell run digests, flips).

        Two sweeps of the same grid — whatever the worker count or
        shard/merge plan that produced their caches — must agree on
        this value; CI and the shard benchmark assert exactly that.
        """
        payload = repr((
            self.gpu_names,
            self.model_names,
            self.rqs,
            self.num_kernels,
            tuple(
                (c.model_name, c.gpu_name, c.rq, c.run.digest())
                for c in self.cells
            ),
            self.flips,
        ))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        """JSON value form: axes, per-cell metrics, flips, tracking."""
        return {
            "type": "matrix",
            "digest": self.digest(),
            "gpus": list(self.gpu_names),
            "models": list(self.model_names),
            "regimes": list(self.rqs),
            "num_kernels": self.num_kernels,
            "cells": [
                {
                    "model": c.model_name,
                    "gpu": c.gpu_name,
                    "regime": c.rq,
                    "accuracy": c.accuracy,
                    "macro_f1": c.run.metrics().macro_f1,
                    "mcc": c.run.metrics().mcc,
                    "run_digest": c.run.digest(),
                }
                for c in self.cells
            ],
            "flips": [
                {
                    "uid": f.uid,
                    "labels": {gpu: label.word for gpu, label in f.labels},
                }
                for f in self.flips
            ],
            "flip_tracking": [
                {
                    "model": t.model_name,
                    "regime": t.rq,
                    "tracked": t.tracked,
                    "total": t.total,
                }
                for t in self.flip_tracking()
            ],
        }

    # -- rendering -----------------------------------------------------------
    def render_accuracy_table(self) -> str:
        headers = ["Model", "RQ"] + [short_gpu_name(g) for g in self.gpu_names]
        rows = []
        for model_name in self.model_names:
            for rq in self.rqs:
                rows.append(
                    [model_name, rq]
                    + [
                        self.cell(model_name, g, rq).accuracy
                        for g in self.gpu_names
                    ]
                )
        return format_table(
            headers,
            rows,
            title=(
                f"Hardware matrix — accuracy over {self.num_kernels} kernels "
                f"× {len(self.gpu_names)} GPUs"
            ),
        )

    def render_flip_table(self, limit: int = 20) -> str:
        headers = ["Kernel"] + [short_gpu_name(g) for g in self.gpu_names] + [
            "Tracked by"
        ]
        trackers = {
            flip.uid: sum(
                flip.uid in tracked for tracked in self._tracked_uids.values()
            )
            for flip in self.flips
        }
        total_cells = len(self.model_names) * len(self.rqs)
        rows = []
        for flip in self.flips[:limit]:
            rows.append(
                [flip.uid]
                + [flip.label_on(g).value for g in self.gpu_names]
                + [f"{trackers[flip.uid]}/{total_cells}"]
            )
        title = (
            f"Label flips — {len(self.flips)} of {self.num_kernels} kernels "
            "change class between rooflines"
        )
        if len(self.flips) > limit:
            title += f" (showing first {limit})"
        return format_table(headers, rows, title=title)

    def render_tracking_table(self) -> str:
        rows = [
            [t.model_name, t.rq, f"{t.tracked}/{t.total}", 100.0 * t.rate]
            for t in self.flip_tracking()
        ]
        return format_table(
            ["Model", "RQ", "Flips tracked", "Rate %"],
            rows,
            title="Flip tracking — correct on every device's side of the flip",
        )

    def render(self, flip_limit: int = 20) -> str:
        parts = [self.render_accuracy_table()]
        if self.flips:
            parts.append(self.render_flip_table(limit=flip_limit))
            parts.append(self.render_tracking_table())
        else:
            parts.append(
                "No label flips: every kernel keeps its class on all "
                "selected GPUs."
            )
        return "\n\n".join(parts)


def label_flips(
    samples_by_gpu: dict[str, Sequence[Sample]]
) -> tuple[KernelFlip, ...]:
    """Kernels whose ground-truth label differs across the given scenarios.

    ``samples_by_gpu`` maps GPU name → device-labelled samples over one
    common uid set (as :func:`scenario_samples` produces).
    """
    gpu_names = list(samples_by_gpu)
    by_uid: dict[str, list[tuple[str, Boundedness]]] = {}
    for gpu_name in gpu_names:
        for sample in samples_by_gpu[gpu_name]:
            by_uid.setdefault(sample.uid, []).append((gpu_name, sample.label))
    flips = []
    for uid, labels in by_uid.items():
        if len({label for _, label in labels}) > 1:
            flips.append(KernelFlip(uid=uid, labels=tuple(labels)))
    return tuple(flips)


def run_matrix(
    models: Sequence[LlmModel] | None = None,
    gpus: Sequence[GpuSpec] | None = None,
    *,
    rqs: Sequence[str] = ("rq2",),
    limit: int = 0,
    engine: EvalEngine | None = None,
    jobs: int = 1,
) -> MatrixResult:
    """Sweep the full (model × regime × GPU) grid.

    One engine spans every cell, so warm caches replay the whole matrix and
    ``engine.stats`` describe the sweep; ``sweep --shard`` plus
    ``merge-caches`` spreads a cold sweep over processes. ``rqs`` entries are regime labels —
    RQ aliases or prompt-variant names (see :func:`regime_variant`).
    ``limit`` truncates the kernel subset *before* profiling — only the
    first N balanced kernels are profiled per device, and the same kernels
    on every device keep flips well-defined.
    """
    models = list(models) if models is not None else all_models()
    gpus = list(gpus) if gpus is not None else list(GPU_DATABASE.values())
    variants = {rq: regime_variant(rq) for rq in rqs}
    if len({v.name for v in variants.values()}) != len(rqs):
        raise ValueError(f"duplicate matrix regimes in {tuple(rqs)}")
    if not gpus:
        raise ValueError("no GPUs selected")
    engine = engine or EvalEngine(jobs=jobs)

    uids = grid_uids(limit, jobs=engine.jobs) if limit else None

    samples_by_gpu: dict[str, Sequence[Sample]] = {}
    cells: list[MatrixCell] = []
    num_kernels = 0
    for gpu in gpus:
        samples = scenario_samples(gpu, uids=uids, jobs=engine.jobs)
        samples_by_gpu[gpu.name] = samples
        num_kernels = len(samples)
        for model in models:
            for rq in rqs:
                items = classification_items(
                    samples, variant=variants[rq], gpu=gpu
                )
                run = run_queries(model, items, engine=engine)
                cells.append(
                    MatrixCell(
                        model_name=model.name,
                        gpu_name=gpu.name,
                        rq=rq,
                        run=run,
                    )
                )

    return MatrixResult(
        gpu_names=tuple(g.name for g in gpus),
        model_names=tuple(m.name for m in models),
        rqs=tuple(rqs),
        num_kernels=num_kernels,
        cells=tuple(cells),
        flips=label_flips(samples_by_gpu),
    )
