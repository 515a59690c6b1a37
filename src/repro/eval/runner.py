"""Generic experiment runner: prompts through a model, responses to metrics.

Centralizes response parsing (off-vocabulary responses count as wrong, as
they would under the paper's automated response checking), usage metering,
and per-sample prediction records for downstream analysis. Execution is
delegated to :class:`repro.eval.engine.EvalEngine`, which shards the
(model, item) grid over a worker pool and memoizes responses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.eval.engine import EvalEngine, ResponseStore
from repro.eval.metrics import MetricReport
from repro.llm.base import LlmModel
from repro.types import Boundedness


@dataclass(frozen=True)
class PredictionRecord:
    """One query's outcome."""

    item_id: str
    truth: Boundedness
    prediction: Boundedness | None  # None = unparseable response
    response_text: str

    @property
    def correct(self) -> bool:
        return self.prediction is not None and self.prediction == self.truth


@dataclass(frozen=True)
class FailedUnit:
    """One work unit that exhausted its retries (``failure_mode="collect"``).

    Error text comes from the final attempt's exception; under a seeded
    fault plan it is deterministic, so failed units digest stably — two
    runs with the same plan record byte-identical failures.
    """

    item_id: str
    error_type: str
    error: str
    attempts: int

    def render(self) -> str:
        return f"{self.item_id}: {self.error_type} after {self.attempts} attempt(s) — {self.error}"


@dataclass(frozen=True)
class RunResult:
    """One (model, experiment) evaluation.

    ``failures`` holds the units that exhausted their retries when the
    engine ran with ``failure_mode="collect"``; they are excluded from
    ``records`` (and so from metrics) but participate in the digest, so a
    degraded run can never masquerade as a clean one.
    """

    model_name: str
    records: tuple[PredictionRecord, ...]
    usage: dict[str, float]
    failures: tuple[FailedUnit, ...] = ()

    def metrics(self) -> MetricReport:
        truths = [r.truth for r in self.records]
        # Unparseable responses are scored as the wrong class (the paper's
        # prompt design "avoids erratic responses"; ours parse cleanly, but
        # the harness is defensive).
        preds = [
            r.prediction if r.prediction is not None else r.truth.other
            for r in self.records
        ]
        return MetricReport.from_predictions(truths, preds)

    @property
    def accuracy(self) -> float:
        return self.metrics().accuracy

    def digest(self) -> str:
        """SHA-256 over the value form of this result (name, records, usage).

        ``repr`` is value-based and float reprs are exact, so the digest is
        stable across processes and machines — the identity check used to
        assert that sharded, merged, and single-machine sweeps agree.
        """
        parts: tuple = (self.model_name, self.records, sorted(self.usage.items()))
        if self.failures:
            # Appended only when present so clean runs keep their historic
            # digests (the shard-merge and replay suites pin those).
            parts += (self.failures,)
        payload = repr(parts)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def render(self) -> str:
        """One-run metric summary (the :class:`Reportable` rendering)."""
        m = self.metrics()
        from repro.util.tables import format_table

        out = format_table(
            ["Model", "N", "Accuracy", "Macro-F1", "MCC"],
            [[self.model_name, m.n, m.accuracy, m.macro_f1, m.mcc]],
            title=f"Run — {self.model_name} over {m.n} kernels",
        )
        if self.failures:
            lines = "\n".join(f"  {f.render()}" for f in self.failures)
            out += f"\nFailed units ({len(self.failures)}):\n{lines}"
        return out

    def to_json(self) -> dict:
        """JSON value form: metrics plus per-kernel records."""
        m = self.metrics()
        out = {
            "type": "run",
            "model": self.model_name,
            "digest": self.digest(),
            "metrics": {
                "accuracy": m.accuracy,
                "macro_f1": m.macro_f1,
                "mcc": m.mcc,
                "n": m.n,
            },
            "usage": dict(sorted(self.usage.items())),
            "records": [
                {
                    "item_id": r.item_id,
                    "truth": r.truth.word,
                    "prediction": (
                        r.prediction.word if r.prediction is not None else None
                    ),
                    "correct": r.correct,
                }
                for r in self.records
            ],
        }
        if self.failures:
            out["failures"] = [
                {
                    "item_id": f.item_id,
                    "error_type": f.error_type,
                    "error": f.error,
                    "attempts": f.attempts,
                }
                for f in self.failures
            ]
        return out


def run_queries(
    model: LlmModel,
    items: Sequence[tuple[str, str, Boundedness]],
    *,
    temperature: float | None = None,
    top_p: float | None = None,
    jobs: int = 1,
    cache: ResponseStore | None = None,
    engine: EvalEngine | None = None,
) -> RunResult:
    """Evaluate ``items`` of (item_id, prompt, truth) against one model.

    ``jobs``/``cache`` configure a throwaway engine; pass ``engine``
    instead to share a pool and hit/miss stats across calls. Results are
    identical at any worker count.
    """
    if engine is None:
        engine = EvalEngine(jobs=jobs, store=cache)
    return engine.run(model, items, temperature=temperature, top_p=top_p)
