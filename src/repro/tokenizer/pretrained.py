"""The corpus-trained tokenizer singleton.

Training draws a deterministic sample of rendered programs from the default
corpus (both languages, mixed verbosity) so the learned merges reflect the
exact text distribution that gets counted at pruning time.

Sample selection is ``programs[::step][:sample]`` with
``step = max(1, len(programs) // sample)``: an even stride across the
corpus-ordered program list. Corpus order interleaves family groups and
puts all CUDA programs before all OMP ones, so the stride covers every
family and both languages; the trailing ``[:sample]`` clips the one extra
program the flooring stride can produce. The selection depends only on
the corpus, so it is stable across processes — which is what lets learned
merges persist in the :class:`~repro.store.text.ArtifactCache` under a
content key derived from the sampled programs.
"""

from __future__ import annotations

from repro import runtime
from repro.tokenizer.bpe import BpeTokenizer

_PRETRAINED: BpeTokenizer | None = None

#: Number of programs sampled for training and merge budget. 900 merges on
#: ~40 programs yields ≈3.5 chars/token on generated CUDA/OMP text, in line
#: with code tokenization by production tokenizers.
TRAIN_SAMPLE = 40
NUM_MERGES = 900

def training_programs(sample: int = TRAIN_SAMPLE) -> list:
    """The deterministic training sample (see module docstring)."""
    from repro.kernels.corpus import default_corpus

    programs = default_corpus().programs
    if not programs:
        raise RuntimeError("empty corpus")
    step = max(1, len(programs) // sample)
    return list(programs[::step][:sample])


def train_corpus_tokenizer(
    sample: int = TRAIN_SAMPLE,
    num_merges: int = NUM_MERGES,
    *,
    cache=runtime.CURRENT,
) -> BpeTokenizer:
    """Train a fresh tokenizer on a deterministic corpus sample.

    When an artifact cache is attached (by default the runtime's), learned
    merges are served from the
    :class:`~repro.store.text.ArtifactCache` under a content key over
    the training programs' text digests × ``num_merges`` × the tokenizer
    version — a warm store trains (and renders) nothing. On a miss, the
    training texts come through :func:`repro.dataset.text.rendered_sources`
    (so they land in the cache for the dataset pass to reuse), the
    tokenizer trains, and the merges persist for the next cold process.
    """
    from repro.dataset.text import rendered_sources
    from repro.store.text import tokenizer_train_key

    chosen = training_programs(sample)
    if cache is runtime.CURRENT:
        cache = runtime.current().artifact_cache
    key = tokenizer_train_key(chosen, num_merges)
    if cache is not None:
        merges = cache.get_merges(key)
        if merges is not None:
            return BpeTokenizer(merges=merges)
    sources = rendered_sources(chosen, cache=cache)
    tokenizer = BpeTokenizer.train(
        [sources[p.uid] for p in chosen], num_merges=num_merges
    )
    if cache is not None:
        cache.put_merges(key, tokenizer.merges)
    return tokenizer


def corpus_tokenizer() -> BpeTokenizer:
    """The process-wide tokenizer used for pruning and Figure 2."""
    global _PRETRAINED
    if _PRETRAINED is None:
        _PRETRAINED = train_corpus_tokenizer()
    return _PRETRAINED


def reset_corpus_tokenizer() -> None:
    """Forget the process-wide tokenizer (tests and benchmarks only)."""
    global _PRETRAINED
    _PRETRAINED = None
