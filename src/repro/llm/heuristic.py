"""Surface-cue (lexical) classification — what non-reasoning models do.

Scores a source listing on cheap textual features a skimming reader keys on:
math-intrinsic density, loop nesting, precision keywords, atomic use, array
fan-in. The feature weights encode plausible (weak) priors, not fitted
parameters — by construction this scorer captures only part of the truth,
which is exactly how the paper's non-reasoning models behave (near-chance
accuracy, MCC ≈ 0).

Extracting the cues is one literal-anchored pass per cue, the same idea as
:class:`repro.llm.promptio._Field`: ``str.find`` jumps to each cue's literal
(``for``, ``double``, ``atomic``, each math name, each ``[``) and the word
boundaries the cue needs are checked by hand, with the regex meaning of
``\\w`` and ``\\s`` (Unicode letters, digits and ``_``; Unicode
whitespace). No pass runs the regex engine over the whole source, and the
features are exactly those of the five regex scans this replaced:
``tests/test_llm_engines.py::TestLexicalScanDifferential`` keeps those
regexes as its reference. A completion's own prompt-keyed stream is
deferred too (:mod:`repro.llm.base`): its prompt is hashed only if the
sampler draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.llm.config import ModelConfig
from repro.llm.promptio import ClassifyQuery
from repro.llm.reasoner import memoized
from repro.util.rng import RngStream

#: Math intrinsics a skimming reader counts, each also with an ``f`` suffix.
_MATH_FNS = ("sqrt", "rsqrt", "exp", "log", "sin", "cos", "tanh", "pow", "erf", "fma")


def _is_word(ch: str) -> bool:
    """``ch`` is a regex ``\\w`` character (Unicode letters, digits, ``_``);
    an empty ``ch`` (past either end) is not."""
    return ch.isalnum() or ch == "_"


def _word_starts(source: str, literal: str) -> Iterator[int]:
    """The end of each occurrence of ``\\bliteral`` in ``source``."""
    at = source.find(literal)
    while at >= 0:
        if not _is_word(source[at - 1:at]):
            yield at + len(literal)
        at = source.find(literal, at + 1)


def _call_count(source: str, name: str, suffix: str = "") -> int:
    """Occurrences of ``\\bname(suffix)?\\s*\\(``: a whole-word call of
    ``name``, or of ``name + suffix``."""
    count = 0
    for end in _word_starts(source, name):
        if suffix and source.startswith(suffix, end):
            end += len(suffix)
        while source[end:end + 1].isspace():
            end += 1
        count += source.startswith("(", end)
    return count


def _array_names(source: str) -> set[str]:
    """Names indexed with ``[``: the whole word before each ``[`` (across
    ``\\s*``) when that word is an ASCII identifier."""
    names: set[str] = set()
    at = source.find("[")
    while at >= 0:
        end = at
        while end > 0 and source[end - 1].isspace():
            end -= 1
        start = end
        while start > 0 and _is_word(source[start - 1]):
            start -= 1
        if start < end:
            word = source[start:end]
            if word.isascii() and word.isidentifier():
                names.add(word)
        at = source.find("[", at + 1)
    return names


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
            math_fn_count=sum(_call_count(source, fn, "f") for fn in _MATH_FNS),
            loop_count=_call_count(source, "for"),
            double_mentions=sum(
                not _is_word(source[end:end + 1])
                for end in _word_starts(source, "double")
            ),
            # ``\batomic`` also covers ``#pragma omp atomic``.
            atomic_present=any(_word_starts(source, "atomic")),
            distinct_arrays=len(_array_names(source)),
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
