"""Dataset pipeline (paper §2.1-2.2): profile → label → prune → balance →
split, with JSON persistence.

The full paper pipeline in one call::

    from repro.dataset import paper_dataset
    ds = paper_dataset()          # 340 balanced samples
    ds.train, ds.validation      # 272 / 68 stratified split
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.balance import PAPER_CELL_SIZE, balance_cells
from repro.dataset.build import build_sample, build_samples, stored_samples
from repro.dataset.prune import TOKEN_CUTOFF, PruneReport, prune_by_tokens
from repro.dataset.records import CounterSummary, Sample, cell_counts
from repro.dataset.split import TrainValSplit, split_train_validation
from repro.dataset.store import load_samples, save_samples
from repro.gpusim import default_device

__all__ = [
    "Sample",
    "CounterSummary",
    "cell_counts",
    "build_sample",
    "build_samples",
    "stored_samples",
    "prune_by_tokens",
    "PruneReport",
    "TOKEN_CUTOFF",
    "balance_cells",
    "PAPER_CELL_SIZE",
    "split_train_validation",
    "TrainValSplit",
    "save_samples",
    "load_samples",
    "PaperDataset",
    "paper_dataset",
]


@dataclass(frozen=True)
class PaperDataset:
    """The paper's full data artefact: every stage of §2.2 in one object."""

    profiled: tuple[Sample, ...]
    pruned: tuple[Sample, ...]
    balanced: tuple[Sample, ...]
    train: tuple[Sample, ...]
    validation: tuple[Sample, ...]
    prune_report: PruneReport


_CACHED: PaperDataset | None = None


def paper_dataset(force_rebuild: bool = False, *, jobs: int = 1) -> PaperDataset:
    """Build (once per process) the paper's dataset pipeline end-to-end.

    ``jobs`` fans the profiling/rendering stage over worker threads; the
    result is identical at any worker count. The profiled samples come
    whole from a warm artifact cache (:func:`stored_samples`), so a warm
    process builds no corpus.
    """
    global _CACHED
    if _CACHED is not None and not force_rebuild:
        return _CACHED
    profiled = stored_samples(
        default_device(), None, lambda: build_samples(jobs=jobs)
    )
    pruned, report = prune_by_tokens(profiled)
    balanced = balance_cells(pruned)
    split = split_train_validation(balanced)
    _CACHED = PaperDataset(
        profiled=tuple(profiled),
        pruned=tuple(pruned),
        balanced=tuple(balanced),
        train=split.train,
        validation=split.validation,
        prune_report=report,
    )
    return _CACHED
