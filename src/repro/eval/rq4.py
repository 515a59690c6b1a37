"""RQ4 experiment: fine-tuning (paper §3.7).

Fine-tunes the emulated gpt-4o-mini response head on the 272-sample training
split (zero-shot prompts, as the paper trained on), evaluates on the
68-sample validation split, and reports the collapse diagnostics the paper
describes: the tuned model answers with a single class for the entire
validation set. Per-language fine-tunes reproduce the same behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset import PaperDataset, Sample, paper_dataset
from repro.eval.metrics import MetricReport
from repro.llm.finetune import (
    FineTuneConfig,
    FineTunedClassifier,
    prediction_entropy,
)
from repro.prompts import build_classify_prompt
from repro.types import Boundedness, Language
from repro.util.parallel import DEFAULT_BACKEND


@dataclass(frozen=True)
class Rq4Result:
    """Outcome of one fine-tuning run."""

    scope: str  # "all" | "cuda" | "omp"
    train_size: int
    validation_size: int
    final_train_accuracy: float
    validation_metrics: MetricReport
    validation_prediction_entropy: float
    collapsed_to: Boundedness | None

    @property
    def collapsed(self) -> bool:
        """True when the tuned model answers one class for all of validation."""
        return self.collapsed_to is not None


def _prompts_labels(samples: list[Sample]) -> tuple[list[str], list[Boundedness]]:
    prompts = [build_classify_prompt(s).text for s in samples]
    labels = [s.label for s in samples]
    return prompts, labels


def run_rq4(
    dataset: PaperDataset | None = None,
    *,
    scope: str = "all",
    config: FineTuneConfig | None = None,
    jobs: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> Rq4Result:
    """Fine-tune and evaluate; ``scope`` restricts to one language.

    Training is inherently sequential SGD; ``jobs``/``backend`` parallelise
    the validation inference pass (and a cold-start dataset build).
    """
    ds = dataset or paper_dataset(jobs=jobs)
    train = list(ds.train)
    val = list(ds.validation)
    if scope == "cuda":
        train = [s for s in train if s.language is Language.CUDA]
        val = [s for s in val if s.language is Language.CUDA]
    elif scope == "omp":
        train = [s for s in train if s.language is Language.OMP]
        val = [s for s in val if s.language is Language.OMP]
    elif scope != "all":
        raise ValueError(f"unknown scope {scope!r}")

    train_prompts, train_labels = _prompts_labels(train)
    val_prompts, val_labels = _prompts_labels(val)

    clf = FineTunedClassifier(config, seed_key=f"finetune-{scope}")
    history = clf.train(train_prompts, train_labels)
    predictions = clf.predict_many(val_prompts, jobs=jobs, backend=backend)

    entropy = prediction_entropy(predictions)
    collapsed_to = predictions[0] if len(set(predictions)) == 1 else None
    return Rq4Result(
        scope=scope,
        train_size=len(train),
        validation_size=len(val),
        final_train_accuracy=history.epoch_train_accuracy[-1] * 100.0,
        validation_metrics=MetricReport.from_predictions(val_labels, predictions),
        validation_prediction_entropy=entropy,
        collapsed_to=collapsed_to,
    )


def _rq4_scope(dataset: PaperDataset, scope: str) -> Rq4Result:
    """Module-level so the process backend can pickle the work unit."""
    return run_rq4(dataset, scope=scope)


def run_rq4_all_scopes(
    dataset: PaperDataset | None = None, *, jobs: int = 1, backend: str = DEFAULT_BACKEND
) -> list[Rq4Result]:
    """The paper's three fine-tune runs: full dataset, CUDA-only, OMP-only.

    The three scopes are independent fine-tunes, so they shard across the
    pool (each keeps its own deterministic seed stream); the SGD loops are
    pure CPU, so ``backend="process"`` runs them truly concurrently.
    """
    from functools import partial

    from repro.util.parallel import parallel_map

    ds = dataset or paper_dataset(jobs=jobs)
    return parallel_map(
        partial(_rq4_scope, ds), ("all", "cuda", "omp"), jobs=jobs, backend=backend
    )
