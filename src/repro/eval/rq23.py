"""RQ2 (zero-shot) and RQ3 (two-shot) classification experiments
(Table 1 cols 6-11).

Both query all 340 balanced samples; RQ3 swaps the pseudo-code examples for
two real code examples in the queried sample's language (paper §3.3).
Each RQ is one prompt variant, and :data:`REGIME_VARIANTS` is the one
table saying which: :func:`run_rq2`/:func:`run_rq3`, the hardware matrix,
sharded sweeps and the CLI all resolve an RQ through
:func:`regime_variant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dataset import Sample, paper_dataset
from repro.eval.engine import EvalEngine
from repro.eval.metrics import MetricReport
from repro.eval.runner import RunResult, run_queries
from repro.llm.base import LlmModel
from repro.prompts import (
    PromptVariant,
    all_variants,
    build_classify_prompt,
    get_variant,
)
from repro.roofline.hardware import GpuSpec
from repro.types import Boundedness

#: The paper's classification regimes (device-dependent truth), as RQ
#: aliases for the two seed prompt variants.
MATRIX_RQS = ("rq2", "rq3")

#: RQ alias → seed prompt-variant name.
REGIME_VARIANTS = {"rq2": "zero-shot", "rq3": "few-shot-2"}


def regime_variant(label: str) -> PromptVariant:
    """Resolve a regime label onto its prompt variant.

    A label is either an RQ alias (``rq2``/``rq3``) or a registered
    :class:`PromptVariant` name; anything else raises ``ValueError`` with
    the valid choices.
    """
    try:
        return get_variant(REGIME_VARIANTS.get(label, label))
    except KeyError:
        names = tuple(v.name for v in all_variants())
        raise ValueError(
            f"unknown matrix regime {label!r}; choose an RQ alias from "
            f"{MATRIX_RQS} or a prompt variant from {names}"
        ) from None


@dataclass(frozen=True)
class ClassificationResult:
    """One model's metrics on one classification regime."""

    model_name: str
    variant: PromptVariant
    metrics: MetricReport
    run: RunResult


def classification_items(
    samples: Sequence[Sample],
    *,
    variant: str | PromptVariant,
    gpu: GpuSpec | None = None,
) -> list[tuple[str, str, Boundedness]]:
    """(item_id, prompt, truth) work units for one classification cell.

    The single source of classification prompt construction — shared by
    RQ2/RQ3, the hardware matrix, and the shard executor
    (:mod:`repro.eval.shard`), so a sharded sweep's cache keys are
    guaranteed to match the single-machine run's. ``variant`` selects the
    prompt form; ``gpu=None`` keeps the paper's default profiling target.
    """
    return [
        (s.uid, build_classify_prompt(s, variant=variant, gpu=gpu).text, s.label)
        for s in samples
    ]


def run_classification(
    model: LlmModel,
    samples: Sequence[Sample] | None = None,
    *,
    variant: str | PromptVariant,
    engine: EvalEngine | None = None,
) -> ClassificationResult:
    """Classify ``samples`` (default: the balanced set) with one model
    under one prompt variant."""
    engine = engine or EvalEngine()
    if samples is None:
        # Cold start builds (and profiles) the dataset here: fan it over
        # the engine's workers instead of a single thread.
        samples = paper_dataset(jobs=engine.jobs).balanced
    variant = get_variant(variant)
    items = classification_items(samples, variant=variant)
    run = run_queries(model, items, engine=engine)
    return ClassificationResult(
        model_name=model.name,
        variant=variant,
        metrics=run.metrics(),
        run=run,
    )


def run_rq2(
    model: LlmModel,
    samples: Sequence[Sample] | None = None,
    *,
    engine: EvalEngine | None = None,
) -> ClassificationResult:
    """Zero-shot classification (RQ2)."""
    return run_classification(
        model, samples, variant=regime_variant("rq2"), engine=engine
    )


def run_rq3(
    model: LlmModel,
    samples: Sequence[Sample] | None = None,
    *,
    engine: EvalEngine | None = None,
) -> ClassificationResult:
    """Two-shot classification with real examples (RQ3)."""
    return run_classification(
        model, samples, variant=regime_variant("rq3"), engine=engine
    )
