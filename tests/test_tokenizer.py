"""Tests for the BPE tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizer import BpeTokenizer, pretokenize
from repro.tokenizer.bpe import _word_to_symbols


class TestPretokenize:
    def test_identifiers_with_leading_space(self):
        assert pretokenize("int foo") == ["int", " foo"]

    def test_numbers_split(self):
        assert "1024" in pretokenize("x = 1024;")

    def test_punctuation_runs(self):
        toks = pretokenize("a += b;")
        assert "+=" in toks

    def test_roundtrip_concatenation(self):
        text = "for (int i = 0; i < n; i++) { x[i] = 0.5f * y[i]; }\n"
        assert "".join(pretokenize(text)) == text


class TestTraining:
    def test_learns_frequent_pairs(self):
        tok = BpeTokenizer.train(["the the the the the"], num_merges=10)
        assert len(tok.merges) > 0
        # "the" should become few tokens
        assert len(tok.tokenize("the")) <= 2

    def test_zero_merges(self):
        tok = BpeTokenizer.train(["abc"], num_merges=0)
        assert tok.merges == []
        assert tok.tokenize("abc") == ["a", "b", "c"]

    def test_negative_merges_rejected(self):
        with pytest.raises(ValueError):
            BpeTokenizer.train(["x"], num_merges=-1)

    def test_min_pair_count_stops_training(self):
        tok = BpeTokenizer.train(["abcdef"], num_merges=100, min_pair_count=2)
        assert tok.merges == []  # every pair unique

    def test_deterministic(self):
        corpus = ["float x = a[i] * b[i];"] * 3
        t1 = BpeTokenizer.train(corpus, num_merges=20)
        t2 = BpeTokenizer.train(corpus, num_merges=20)
        assert t1.merges == t2.merges


class TestEncoding:
    @pytest.fixture(scope="class")
    def tok(self):
        corpus = [
            "for (int i = 0; i < n; i++) { out[i] = alpha * x[i] + y[i]; }",
            "float alpha = 2.0f; const float *x; float *y;",
        ] * 4
        return BpeTokenizer.train(corpus, num_merges=60)

    def test_encode_decode_roundtrip(self, tok):
        text = "float alpha = 2.0f;"
        assert tok.decode(tok.encode(text)) == text

    def test_roundtrip_unseen_text(self, tok):
        text = "__global__ void k(double *zz) { zz[0] = 1.0; }"
        assert tok.decode(tok.encode(text)) == text

    def test_count_matches_encode(self, tok):
        text = "for (int i = 0; i < n; i++) y[i] = x[i];"
        assert tok.count_tokens(text) == len(tok.encode(text))

    def test_compression(self, tok):
        text = "for (int i = 0; i < n; i++) { out[i] = alpha * x[i] + y[i]; }"
        assert tok.count_tokens(text) < len(text)

    def test_empty_text(self, tok):
        assert tok.encode("") == []
        assert tok.count_tokens("") == 0

    def test_decode_unknown_id_raises(self, tok):
        with pytest.raises(ValueError):
            tok.decode([10**9])

    def test_vocab_size_grows_with_merges(self):
        small = BpeTokenizer.train(["aaaa bbbb aaaa bbbb"], num_merges=2)
        assert small.vocab_size == 256 + len(small.merges)


class TestPersistence:
    def test_json_roundtrip(self):
        tok = BpeTokenizer.train(["hello world hello world"], num_merges=10)
        restored = BpeTokenizer.from_json(tok.to_json())
        text = "hello world"
        assert restored.encode(text) == tok.encode(text)


class TestCorpusTokenizer:
    def test_corpus_tokenizer_properties(self, tokenizer):
        assert tokenizer.vocab_size > 500
        sample = "__global__ void saxpy_kernel(const float *x, float *y, float a, int n)"
        count = tokenizer.count_tokens(sample)
        # code-like compression: between 2 and 5 chars/token
        assert len(sample) / 5 < count < len(sample) / 2

    def test_cached_singleton(self, tokenizer):
        from repro.tokenizer import corpus_tokenizer

        assert corpus_tokenizer() is tokenizer


def seed_train(corpus, num_merges=3000, min_pair_count=2):
    """The seed repo's recount-everything BPE trainer, replicated verbatim.

    O(num_merges × corpus): every iteration recounts every pair frequency
    across the whole word dict and rebuilds every word. The incremental
    trainer in :meth:`BpeTokenizer.train` must learn a byte-identical
    merge sequence; the hypothesis property below pins that equivalence.
    """
    from collections import Counter

    if num_merges < 0:
        raise ValueError("num_merges must be non-negative")
    word_freq = Counter()
    for text in corpus:
        for word in pretokenize(text):
            word_freq[_word_to_symbols(word)] += 1

    merges = []
    words = dict(word_freq)
    for _ in range(num_merges):
        pair_counts = Counter()
        for word, freq in words.items():
            for i in range(len(word) - 1):
                pair_counts[(word[i], word[i + 1])] += freq
        if not pair_counts:
            break
        best_pair, best_count = max(
            pair_counts.items(), key=lambda kv: (kv[1], kv[0])
        )
        if best_count < min_pair_count:
            break
        merges.append(best_pair)
        merged = best_pair[0] + best_pair[1]
        new_words = {}
        for word, freq in words.items():
            out = []
            i = 0
            while i < len(word):
                if (
                    i < len(word) - 1
                    and word[i] == best_pair[0]
                    and word[i + 1] == best_pair[1]
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            key = tuple(out)
            new_words[key] = new_words.get(key, 0) + freq
        words = new_words
    return merges


class TestIncrementalTrainerEquivalence:
    """The incremental trainer is byte-identical to the seed trainer."""

    @settings(max_examples=120, deadline=None)
    @given(
        texts=st.lists(
            st.text(
                alphabet="ab AB0(){};*+.\n\t_", min_size=0, max_size=120
            ),
            min_size=0,
            max_size=5,
        ),
        num_merges=st.integers(min_value=0, max_value=48),
        min_pair_count=st.integers(min_value=1, max_value=3),
    )
    def test_matches_seed_trainer(self, texts, num_merges, min_pair_count):
        expected = seed_train(
            texts, num_merges=num_merges, min_pair_count=min_pair_count
        )
        tok = BpeTokenizer.train(
            texts, num_merges=num_merges, min_pair_count=min_pair_count
        )
        assert tok.merges == expected
        # Same merges ⇒ same counting behaviour on arbitrary text,
        # including text outside the training distribution.
        reference = BpeTokenizer(merges=list(expected))
        probe = "".join(texts) + " zz0*9 __global__ {\n\t} +== .q"
        assert tok.count_tokens(probe) == reference.count_tokens(probe)
        assert tok.encode(probe) == reference.encode(probe)

    def test_matches_seed_on_code_like_text(self):
        corpus = [
            "for (int i = 0; i < n; i++) { out[i] = alpha * x[i] + y[i]; }",
            "__global__ void k(float *x, int n) { x[0] = 0.5f; }",
            "#pragma omp target teams distribute parallel for\n",
        ] * 3
        assert BpeTokenizer.train(corpus, num_merges=200).merges == seed_train(
            corpus, num_merges=200
        )

    def test_min_pair_count_one_exhausts_identically(self):
        # min_pair_count=1 drives training until no pairs remain — the
        # loop-termination edge the incremental bookkeeping must also hit.
        corpus = ["abcabd ee ff"]
        assert BpeTokenizer.train(
            corpus, num_merges=1000, min_pair_count=1
        ).merges == seed_train(corpus, num_merges=1000, min_pair_count=1)


class TestEncodeCache:
    def _tok(self, cache_size):
        return BpeTokenizer(
            merges=[("a", "b"), ("ab", "c")], cache_size=cache_size
        )

    def test_cache_is_bounded(self):
        tok = self._tok(cache_size=3)
        for word in ["abc", "abd", "abe", "abf", "abg"]:
            tok._encode_word(word)
        assert len(tok._cache) <= 3

    def test_lru_eviction_keeps_recently_used(self):
        tok = self._tok(cache_size=3)
        for word in ["one", "two", "three"]:
            tok._encode_word(word)
        tok._encode_word("one")  # refresh: now "two" is oldest
        tok._encode_word("four")
        assert "one" in tok._cache
        assert "two" not in tok._cache

    def test_zero_cache_size_disables_caching(self):
        tok = self._tok(cache_size=0)
        assert tok._encode_word("abc") == ("abc",)
        assert tok._cache == {}

    def test_cached_and_uncached_agree(self):
        cached, uncached = self._tok(200_000), self._tok(0)
        text = "abc abd xabcy ab ababab c"
        assert cached.encode(text) == uncached.encode(text)
        assert cached.count_tokens(text) == uncached.count_tokens(text)

    def test_digest_depends_only_on_merges(self):
        a = BpeTokenizer(merges=[("a", "b")], cache_size=7)
        b = BpeTokenizer(merges=[("a", "b")])
        c = BpeTokenizer(merges=[("a", "c")])
        a.count_tokens("abab")  # cache contents must not leak into digests
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestLineMemo:
    """``count_tokens`` sums memoized per-line counts; the sum equals a
    count over the whole text's pre-tokens."""

    #: Trained on code-like text so merges span identifiers, numbers,
    #: punctuation and whitespace runs, newline runs included.
    MERGES_CORPUS = [
        "for (int i = 0; i < n; i++) {\n\tout[i] = alpha * x[i] + y[i];\n}\n\n",
        "float alpha = 2.0f;\r\n  const float *x;  \t float *y;\n\n\n",
    ] * 4

    @staticmethod
    def unmemoized(tok, text):
        return sum(len(tok._encode_word(word)) for word in pretokenize(text))

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(
            st.builds(
                lambda lead, body, trail: "\n" * lead + body + "\n" * trail,
                st.integers(0, 3),
                st.text(
                    alphabet=st.one_of(
                        st.sampled_from(list("\n\n\r \t\tab_Z09(){};*+=.")),
                        st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
                    ),
                    max_size=80,
                ),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        ),
        cache_size=st.sampled_from([0, 1, 3, 200_000]),
    )
    def test_matches_unmemoized_count(self, texts, cache_size):
        tok = BpeTokenizer.train(self.MERGES_CORPUS, num_merges=40)
        tok.cache_size = cache_size
        for _ in range(2):  # cold memo, then warm
            for text in texts:
                assert tok.count_tokens(text) == self.unmemoized(tok, text)
        assert len(tok._line_counts) <= cache_size

    def test_matches_unmemoized_count_on_rendered_programs(self):
        from repro.kernels.codegen import render_program
        from repro.kernels.corpus import build_corpus

        tok = BpeTokenizer.train(self.MERGES_CORPUS, num_merges=40)
        sources = [
            render_program(p).concatenated_source()
            for p in build_corpus(3, 2).programs
        ]
        for _ in range(2):  # cold memo, then warm
            for source in sources:
                assert tok.count_tokens(source) == self.unmemoized(tok, source)

    def test_memo_resets_with_the_merges(self):
        tok = BpeTokenizer(merges=[("a", "b")])
        assert tok.count_tokens("ab\nab") == 3
        tok.merges = []
        tok._rebuild()
        assert tok.count_tokens("ab\nab") == 5
