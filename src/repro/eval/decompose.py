"""Question-decomposition experiment driver (paper §4 future work).

Runs the three-step successive-prompting protocol of
:mod:`repro.prompts.decompose` over the balanced dataset and compares
against the zero-shot (RQ2) baseline. The driver threads each model's own
intermediate answers into the next prompt, exactly how decomposition
harnesses wrap real chat APIs; malformed intermediate answers fall back to a
Bandwidth verdict (scored as-is).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dataset import Sample, paper_dataset
from repro.eval.engine import EvalEngine
from repro.eval.metrics import MetricReport
from repro.llm.base import LlmModel
from repro.llm.pricing import UsageMeter
from repro.util.parallel import parallel_map
from repro.prompts.decompose import (
    build_step1_prompt,
    build_step2_prompt,
    build_step3_prompt,
    parse_step1_answer,
    parse_step2_answer,
)
from repro.roofline.hardware import GpuSpec, default_gpu
from repro.types import Boundedness


class _UsageRecorder:
    """Meter-shaped sink that defers accumulation (keeps float sums
    order-exact when workers run out of order)."""

    def __init__(self) -> None:
        self.usages: list = []

    def record(self, usage) -> None:
        self.usages.append(usage)


@dataclass(frozen=True)
class DecomposedPrediction:
    """One sample's three-step outcome."""

    sample_uid: str
    truth: Boundedness
    prediction: Boundedness
    steps_completed: int

    @property
    def correct(self) -> bool:
        return self.prediction == self.truth


@dataclass(frozen=True)
class DecomposeResult:
    model_name: str
    predictions: tuple[DecomposedPrediction, ...]
    usage: dict[str, float]

    def metrics(self) -> MetricReport:
        return MetricReport.from_predictions(
            [p.truth for p in self.predictions],
            [p.prediction for p in self.predictions],
        )


def classify_decomposed(
    model: LlmModel, sample: Sample, *, gpu: GpuSpec | None = None,
    meter: UsageMeter | None = None, engine: EvalEngine | None = None,
) -> DecomposedPrediction:
    """Run the full three-step protocol for one sample.

    Every step completes through ``engine`` (a store-less one by default),
    so retries, the active fault plan and stats apply to all of them."""
    gpu = gpu or default_gpu()
    engine = engine or EvalEngine()

    def complete(prompt: str) -> str:
        response = engine.complete(model, prompt)
        if meter is not None:
            meter.record(response.usage)
        return response.text

    steps = 0
    try:
        a1 = parse_step1_answer(complete(build_step1_prompt(gpu)))
        steps = 1
        a2 = parse_step2_answer(complete(build_step2_prompt(sample)))
        steps = 2
        final = complete(
            build_step3_prompt(
                sp_ops=a2.sp_ops,
                dp_ops=a2.dp_ops,
                int_ops=a2.int_ops,
                bytes_per_thread=a2.bytes_per_thread,
                sp_peak=a1.sp_peak,
                dp_peak=a1.dp_peak,
                int_peak=a1.int_peak,
                bandwidth=a1.bandwidth,
            )
        )
        steps = 3
        prediction = Boundedness.from_word(final)
    except ValueError:
        prediction = Boundedness.BANDWIDTH  # harness fallback
    return DecomposedPrediction(
        sample_uid=sample.uid,
        truth=sample.label,
        prediction=prediction,
        steps_completed=steps,
    )


def run_decompose_experiment(
    model: LlmModel,
    samples: Sequence[Sample] | None = None,
    *,
    gpu: GpuSpec | None = None,
    engine: EvalEngine | None = None,
) -> DecomposeResult:
    """The full decomposition sweep for one model.

    Samples are independent three-step chains, so they shard across the
    engine's pool; each worker collects its sample's raw ``Usage`` records
    and they are metered afterwards in (sample, step) order — the same
    accumulation order as the sequential loop, so usage totals (including
    float cost sums) are byte-identical at any worker count.
    """
    engine = engine or EvalEngine()
    if samples is None:
        # Cold start builds (and profiles) the dataset here: fan it over
        # the engine's workers instead of a single thread.
        samples = paper_dataset(jobs=engine.jobs).balanced

    def one(sample: Sample) -> tuple[DecomposedPrediction, list]:
        recorder = _UsageRecorder()
        pred = classify_decomposed(
            model, sample, gpu=gpu, meter=recorder, engine=engine
        )
        return pred, recorder.usages

    # Each chain completes through the shared engine (cache reads/writes and
    # stats must stay in this process), so a process-backend engine clamps
    # to threads here; sequential stays sequential.
    backend = "thread" if engine.backend == "process" else engine.backend
    pairs = parallel_map(one, list(samples), jobs=engine.jobs, backend=backend)
    meter = UsageMeter(model.config)
    for _, usages in pairs:
        for usage in usages:
            meter.record(usage)
    return DecomposeResult(
        model_name=model.name,
        predictions=tuple(pred for pred, _ in pairs),
        usage=meter.summary(),
    )
