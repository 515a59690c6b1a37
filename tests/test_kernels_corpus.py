"""Tests for corpus assembly (paper §2.1 counts and determinism)."""

import hashlib

import pytest

from repro.kernels.corpus import (
    DEFAULT_CUDA_COUNT,
    DEFAULT_OMP_COUNT,
    build_corpus,
    default_corpus,
)
from repro.types import Language


class TestCorpusCounts:
    def test_paper_counts(self):
        assert DEFAULT_CUDA_COUNT == 446
        assert DEFAULT_OMP_COUNT == 303

    def test_full_corpus_sizes(self, corpus):
        assert len(corpus) == 749
        assert len(corpus.by_language(Language.CUDA)) == 446
        assert len(corpus.by_language(Language.OMP)) == 303

    def test_custom_counts(self):
        c = build_corpus(10, 5)
        assert len(c.by_language(Language.CUDA)) == 10
        assert len(c.by_language(Language.OMP)) == 5

    def test_zero_counts(self):
        c = build_corpus(0, 0)
        assert len(c) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_corpus(-1, 0)


class TestCorpusStructure:
    def test_unique_uids(self, corpus):
        uids = [p.uid for p in corpus.programs]
        assert len(uids) == len(set(uids))

    def test_lookup_by_uid(self, corpus):
        p = corpus.programs[0]
        assert corpus.get(p.uid) is p

    def test_lookup_missing_raises(self, corpus):
        with pytest.raises(KeyError):
            corpus.get("cuda/zzz-v1")

    def test_by_family(self, corpus):
        progs = corpus.by_family("saxpy")
        assert progs
        assert all(p.family == "saxpy" for p in progs)
        # both languages represented
        assert {p.language for p in progs} == {Language.CUDA, Language.OMP}

    def test_family_coverage(self, corpus):
        """Every registered family contributes at least 4 CUDA programs."""
        from repro.kernels.families import all_families

        for name in all_families():
            cuda_variants = [
                p for p in corpus.by_family(name) if p.language is Language.CUDA
            ]
            assert len(cuda_variants) >= 4, name

    def test_determinism(self):
        a = build_corpus(25, 15)
        b = build_corpus(25, 15)
        assert a.programs == b.programs

    def test_default_corpus_is_pinned(self, corpus):
        """SHA-256 over the ``repr`` of every default-corpus program: a
        change to how programs are built that changes none of them keeps
        this digest."""
        digest = hashlib.sha256(repr(corpus.programs).encode()).hexdigest()
        assert digest == (
            "2db45da54b87426cddf774adea2a146abe83da895dad10976ffadfad4ca893d7"
        )

    def test_default_corpus_cached(self):
        assert default_corpus() is default_corpus()

    def test_first_kernel_is_main_kernel(self, mini_corpus):
        for p in mini_corpus.programs:
            # distractor/alt kernels never come first
            name = p.first_kernel.kernel.name
            assert not name.startswith(("init_aux", "rescale_aux", "clamp_aux"))
            assert not name.endswith(("_warmup", "_v2"))


class _CountingPrograms(tuple):
    """Tuple that counts full iterations (a linear-scan detector)."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


class TestIndexedLookup:
    def test_get_does_not_scan(self, mini_corpus):
        """Regression for the old O(n) ``Corpus.get``: after construction,
        uid lookups must not iterate the program tuple at all."""
        from repro.kernels.corpus import Corpus

        _CountingPrograms.iterations = 0
        corpus = Corpus(programs=_CountingPrograms(mini_corpus.programs))
        built = _CountingPrograms.iterations
        assert built >= 1  # the one-time index build is allowed to iterate
        for p in mini_corpus.programs:
            assert corpus.get(p.uid) is p
        assert corpus.get(mini_corpus.programs[-1].uid) is mini_corpus.programs[-1]
        with pytest.raises(KeyError):
            corpus.get("cuda/definitely-missing-v1")
        assert _CountingPrograms.iterations == built

    def test_index_survives_len_and_contains_style_use(self, mini_corpus):
        from repro.kernels.corpus import Corpus

        corpus = Corpus(programs=tuple(mini_corpus.programs))
        assert len(corpus) == len(mini_corpus.programs)
        first = mini_corpus.programs[0]
        assert corpus.get(first.uid).uid == first.uid
