"""Deep-analysis decision path — what reasoning models do.

Runs the full source-level static pipeline (:mod:`repro.analysis`) on the
queried kernel: find the kernel by name, resolve trip counts from the argv
in the prompt, estimate per-class arithmetic intensity, and compare against
the balance points derivable from the prompt's hardware bullet list.

The decision value is the maximum log-ratio of estimated intensity to
balance point across op classes (positive = some class looks compute-bound,
the paper's CB rule), perturbed by model-specific reading noise that grows
with how much of the estimate rests on guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis import StaticEstimate, analyze_kernel, find_kernel
from repro.llm.config import ModelConfig
from repro.llm.promptio import ClassifyQuery
from repro.types import Language, OpClass
from repro.util.memo import Memo
from repro.util.rng import RngStream


@dataclass(frozen=True)
class DeepAnalysis:
    """Outcome of the deep path."""

    logit: float          # positive = Compute
    raw_margin: float     # noise-free log2 margin
    guess_fraction: float
    succeeded: bool


_FAILED = DeepAnalysis(logit=0.0, raw_margin=0.0, guess_fraction=1.0, succeeded=False)

# The device-independent reading of a kernel, shared across every GPU ×
# regime cell (and every model) in the process: the static estimates here
# and the lexical scores of :func:`repro.llm.heuristic.source_score`. Keyed
# by code digest (:attr:`ClassifyQuery.code_digest`), never by the source
# text itself.
ANALYSES = Memo(4096)
_MISSING = object()

# The code-keyed draws (see :class:`MemoStream`), in their own table so
# that they can never evict a kernel analysis: one entry per code stream,
# i.e. per (model, code digest), holding that stream's children's draws. A
# ``--model all`` sweep of the paper's kernels needs 9 × 340 entries.
DRAWS = Memo(4096)


def memoized(key: tuple, compute: Callable[[], object]) -> object:
    """The analysis-memo entry for ``key``, computed on first use."""
    value = ANALYSES.get(key, _MISSING)
    if value is _MISSING:
        value = ANALYSES.put(key, compute())
    return value


class MemoStream(RngStream):
    """A code-keyed stream whose draws are served from the draw memo.

    The analysis randomness of a completion is keyed by model and code
    digest, so each child's draw (``lex``, ``attention``, ``deep``) has the
    same value in every GPU × regime cell. It is drawn from a freshly
    seeded generator once per process and looked up, by the child's key,
    the draw method and its args, after that. A memoized value can stand in
    only for the *first* draw of a throwaway stream, so each stream object
    draws once: a second draw raises instead of repeating the value, and
    draws other than :meth:`uniform` and :meth:`normal` are refused.
    """

    def __init__(self, *key: object, entry: tuple | None = None):
        super().__init__(*key)
        self._entry = self._key if entry is None else entry
        self._drawn = False

    def child(self, *subkey: object) -> "MemoStream":
        return MemoStream(*self._key, *subkey, entry=self._entry)

    @property
    def _gen(self):
        raise TypeError(f"{self!r} serves only memoized uniform and normal draws")

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._draw("uniform", low, high)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return self._draw("normal", mean, std)

    def _draw(self, method: str, *args: float) -> float:
        if self._drawn:
            raise RuntimeError(f"second draw from the memo-served {self!r}")
        self._drawn = True
        sub = (self._key[len(self._entry):], method, args)
        draws = DRAWS.get(self._entry)
        value = _MISSING if draws is None else draws.get(sub, _MISSING)
        if value is _MISSING:
            value = getattr(RngStream(*self._key), method)(*args)
            if draws is None:
                draws = DRAWS.setdefault(self._entry, {})
            draws[sub] = value
        return value


def static_estimate(
    source: str,
    kernel_name: str,
    language: Language,
    argv_values: dict[str, int],
    code_digest: str,
) -> StaticEstimate | None:
    """Find the kernel by name and run the static pipeline on it, with trip
    counts resolved from ``argv_values``; None when the analysis fails.

    Memoized by (code digest, language, argv params). The caller passes
    ``code_digest``, ``stable_hash_hex(source, kernel_name)``, which it has
    already hashed to key its analysis randomness.
    """

    def analyze() -> StaticEstimate | None:
        try:
            kernel = find_kernel(source, kernel_name, language)
            return analyze_kernel(kernel, param_values=argv_values, branch_taken=0.5)
        except Exception:
            return None

    key = (code_digest, language, tuple(sorted(argv_values.items())))
    return memoized(key, analyze)


def deep_logit(
    query: ClassifyQuery,
    model: ModelConfig,
    rng: RngStream,
) -> DeepAnalysis:
    """Run the static pipeline and produce a decision value."""
    estimate = static_estimate(
        query.source,
        query.kernel_name,
        query.language,
        query.argv_values(),
        query.code_digest,
    )
    if estimate is None:
        return _FAILED

    balance = query.balance_points()
    margin = -math.inf
    for op_class in OpClass:
        ai = estimate.intensity(op_class)
        bp = balance[op_class]
        if ai <= 0.0 or bp <= 0.0:
            continue
        margin = max(margin, math.log2(ai / bp))
    if not math.isfinite(margin):
        return _FAILED

    # Reading noise: scaled up when the estimate rests on guessed trip
    # counts, branch densities, or data-dependent accesses.
    sigma = model.deep_noise * (1.0 + estimate.guess_fraction)
    noisy = margin + rng.normal(0.0, sigma)
    # Squash: far-from-boundary kernels are confidently classified; the
    # squash keeps the deep logit commensurate with the lexical one.
    logit = math.tanh(noisy / 3.0)
    return DeepAnalysis(
        logit=logit,
        raw_margin=margin,
        guess_fraction=estimate.guess_fraction,
        succeeded=True,
    )
