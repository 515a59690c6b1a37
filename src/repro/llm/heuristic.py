"""Surface-cue (lexical) classification — what non-reasoning models do.

Scores a source listing on cheap textual features a skimming reader keys on:
math-intrinsic density, loop nesting, precision keywords, atomic use, array
fan-in. The feature weights encode plausible (weak) priors, not fitted
parameters — by construction this scorer captures only part of the truth,
which is exactly how the paper's non-reasoning models behave (near-chance
accuracy, MCC ≈ 0).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.llm.config import ModelConfig
from repro.llm.promptio import ClassifyQuery
from repro.llm.reasoner import memoized
from repro.util.rng import RngStream

_MATH_FN_RE = re.compile(
    r"\b(?:sqrtf?|rsqrtf?|expf?|logf?|sinf?|cosf?|tanhf?|powf?|erff?|fmaf?)\s*\("
)
_FOR_RE = re.compile(r"\bfor\s*\(")
_DOUBLE_RE = re.compile(r"\bdouble\b")
_ATOMIC_RE = re.compile(r"\batomic|#pragma omp atomic")
_ARRAY_RE = re.compile(r"\b([A-Za-z_][A-Za-z_0-9]*)\s*\[")


@dataclass(frozen=True)
class LexicalFeatures:
    """The surface cues a skimming reader extracts."""

    math_fn_count: int
    loop_count: int
    double_mentions: int
    atomic_present: bool
    distinct_arrays: int
    source_kilochars: float

    @classmethod
    def extract(cls, source: str) -> "LexicalFeatures":
        return cls(
            math_fn_count=len(_MATH_FN_RE.findall(source)),
            loop_count=len(_FOR_RE.findall(source)),
            double_mentions=len(_DOUBLE_RE.findall(source)),
            atomic_present=bool(_ATOMIC_RE.search(source)),
            distinct_arrays=len(set(_ARRAY_RE.findall(source))),
            source_kilochars=len(source) / 1000.0,
        )

    def score(self) -> float:
        """Compute-leaning score in roughly [-1, 1].

        Positive = looks compute-bound. Weights are fixed priors: math
        functions and loops suggest arithmetic per byte; many distinct
        arrays and atomics suggest data movement.
        """
        s = 0.0
        s += 0.22 * math.log1p(self.math_fn_count)
        s += 0.18 * math.log1p(self.loop_count)
        s += 0.30 * (1.0 if self.double_mentions > 2 else 0.0)
        s -= 0.25 * (1.0 if self.atomic_present else 0.0)
        s -= 0.06 * max(0, self.distinct_arrays - 3)
        s -= 0.35  # most kernels on most hardware are bandwidth-bound
        return max(-1.5, min(1.5, s))


def source_score(source: str, code_digest: str) -> float:
    """:meth:`LexicalFeatures.score` of ``source``, memoized by the digest of
    the code it belongs to (:attr:`ClassifyQuery.code_digest`)."""
    return memoized(
        ("lex", code_digest),
        lambda: LexicalFeatures.extract(source).score(),
    )


def lexical_logit(
    query: ClassifyQuery,
    model: ModelConfig,
    rng: RngStream,
) -> float:
    """The model's surface-cue decision value (positive = Compute).

    Skill interpolates between the feature score and an idiosyncratic
    per-(model, code) reading — a deterministic pseudo-random opinion, drawn
    from ``rng``, that stands in for whatever an uninformed model keys on.
    """
    skill = model.heuristic_skill
    if query.has_real_examples:
        skill = min(1.0, skill + model.fewshot_skill_bonus)
    informed = source_score(query.source, query.code_digest)
    idiosyncratic = rng.uniform(-0.8, 0.8)
    return skill * informed + (1.0 - skill) * idiosyncratic
