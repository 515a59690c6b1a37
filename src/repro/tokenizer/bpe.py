"""Byte-level BPE tokenizer (trainable).

The paper uses the gpt-4o-mini tokenizer to enforce its 8e3-token prompt
cutoff and to draw Figure 2's token-count distributions. Offline, we train
our own byte-level BPE on the generated corpus: what matters downstream is a
consistent subword token count with code-like statistics (≈3-4 characters
per token on C sources), which BPE delivers by construction.

Implementation follows the classic algorithm: pre-tokenize into words with a
GPT-style regex, then repeatedly merge the most frequent adjacent symbol
pair. Training is deterministic (ties broken lexicographically) and
**incremental**: rather than recounting every pair frequency across the
whole word dict on each merge iteration (the seed trainer's O(merges ×
corpus) inner loop), it maintains exact pair counts plus a pair →
affected-words index and, after a merge, updates only the words that
actually contained the merged pair. The learned merge sequence is
*byte-identical* to the naive recount-everything trainer — the counts
maintained are exact and the argmax tie-break is order-independent — and a
hypothesis property in ``tests/test_tokenizer.py`` pins that equivalence.
"""

from __future__ import annotations

import json
import re
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.util.hashing import stable_hash_hex

#: Bump whenever pretokenization or trainer *semantics* change (the
#: incremental trainer is semantics-preserving, so it did not): hashed
#: into tokenizer store keys and digests so stale persisted merges read
#: as misses.
BPE_VERSION = "bpe-v1"

#: Default bound on the per-tokenizer word→symbols encode memo.
DEFAULT_ENCODE_CACHE_SIZE = 200_000

#: GPT-style pre-tokenization: identifiers (with one leading space), numbers,
#: punctuation runs, whitespace runs.
_PRETOKEN_RE = re.compile(
    r" ?[A-Za-z_]+|[0-9]+|[^\sA-Za-z_0-9]+| +|\n+|\t+"
)


#: Runs of two or more newlines. No :data:`_PRETOKEN_RE` alternative but
#: ``\n+`` matches a newline, so a text's pre-tokens are those of its
#: lines and of the newline runs between them.
_NEWLINE_RUNS_RE = re.compile(r"\n\n+")


def pretokenize(text: str) -> list[str]:
    """Split text into BPE word units."""
    return _PRETOKEN_RE.findall(text)


def _word_to_symbols(word: str) -> tuple[str, ...]:
    return tuple(word)


@dataclass
class BpeTokenizer:
    """A trained byte-level BPE tokenizer.

    ``merges`` is an ordered list of symbol pairs; rank order defines merge
    priority during encoding (lower rank merges first), exactly as in the
    original BPE formulation.

    ``cache_size`` bounds the word-encode memo: entries are kept LRU, so a
    long multi-scenario sweep can never grow the memo without limit while
    the hot vocabulary (code identifiers repeat heavily) stays resident.
    It bounds :meth:`count_tokens`' line → count memo too, whose oldest
    entries go first.
    """

    merges: list[tuple[str, str]] = field(default_factory=list)
    cache_size: int = field(
        default=DEFAULT_ENCODE_CACHE_SIZE, repr=False, compare=False
    )
    _ranks: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _vocab: dict[str, int] = field(default_factory=dict, repr=False)
    _cache: "OrderedDict[str, tuple[str, ...]]" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _line_counts: "OrderedDict[str, int]" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _digest: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rebuild()

    def _rebuild(self) -> None:
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        symbols: dict[str, int] = {}
        for ch in map(chr, range(256)):
            symbols.setdefault(ch, len(symbols))
        for a, b in self.merges:
            symbols.setdefault(a + b, len(symbols))
        self._vocab = symbols
        self._cache = OrderedDict()
        self._line_counts = OrderedDict()
        self._digest = None

    def digest(self) -> str:
        """SHA-256 content address of this tokenizer's behaviour.

        Depends only on the merge list (and :data:`BPE_VERSION`), so the
        seed and incremental trainers — which learn identical merges —
        digest identically, and render-store token counts key cleanly.
        """
        if self._digest is None:
            self._digest = stable_hash_hex(BPE_VERSION, self.merges)
        return self._digest

    # -- training ------------------------------------------------------------
    @classmethod
    def train(
        cls, corpus: Iterable[str], *, num_merges: int = 3000, min_pair_count: int = 2
    ) -> "BpeTokenizer":
        """Learn ``num_merges`` merge rules from the corpus texts.

        Incremental pair counting: ``pair_counts`` holds the exact
        frequency of every adjacent symbol pair over the current word
        dict (zero-count pairs are deleted, so the candidate set always
        equals what a full recount would produce), and ``occ`` maps each
        pair to the set of words currently containing it. One merge
        iteration touches only the words in ``occ[best_pair]`` —
        subtracting their old pair contributions, rewriting them, and
        adding the new ones — instead of rescanning the entire dict.
        """
        if num_merges < 0:
            raise ValueError("num_merges must be non-negative")
        word_freq: Counter[str] = Counter()
        for text in corpus:
            word_freq.update(pretokenize(text))

        words: dict[tuple[str, ...], int] = {}
        for word, freq in word_freq.items():
            key = _word_to_symbols(word)
            words[key] = words.get(key, 0) + freq

        pair_counts: dict[tuple[str, str], int] = {}
        occ: dict[tuple[str, str], set[tuple[str, ...]]] = {}
        for word, freq in words.items():
            for i in range(len(word) - 1):
                pair = (word[i], word[i + 1])
                pair_counts[pair] = pair_counts.get(pair, 0) + freq
                occ.setdefault(pair, set()).add(word)

        merges: list[tuple[str, str]] = []
        for _ in range(num_merges):
            if not pair_counts:
                break
            # Deterministic: max count, ties broken lexicographically —
            # a total order, so the winner is independent of dict order.
            # zip() keeps the comparison in C: (count, pair) tuples order
            # exactly like the classic key=(count, pair) argmax.
            best_count, best_pair = max(
                zip(pair_counts.values(), pair_counts.keys())
            )
            if best_count < min_pair_count:
                break
            merges.append(best_pair)
            a, b = best_pair
            merged = a + b
            # Greedy left-to-right merging removes every occurrence of
            # best_pair, so no rewritten word re-enters the affected set.
            for word in occ.pop(best_pair, ()):
                freq = words.pop(word)
                for i in range(len(word) - 1):
                    pair = (word[i], word[i + 1])
                    remaining = pair_counts[pair] - freq
                    if remaining:
                        pair_counts[pair] = remaining
                    else:
                        del pair_counts[pair]
                    witnesses = occ.get(pair)
                    if witnesses is not None:
                        witnesses.discard(word)
                        if not witnesses:
                            del occ[pair]
                out: list[str] = []
                i = 0
                n = len(word)
                while i < n:
                    if i < n - 1 and word[i] == a and word[i + 1] == b:
                        out.append(merged)
                        i += 2
                    else:
                        out.append(word[i])
                        i += 1
                new_word = tuple(out)
                words[new_word] = words.get(new_word, 0) + freq
                for i in range(len(new_word) - 1):
                    pair = (new_word[i], new_word[i + 1])
                    pair_counts[pair] = pair_counts.get(pair, 0) + freq
                    occ.setdefault(pair, set()).add(new_word)
        return cls(merges=merges)

    # -- encoding ------------------------------------------------------------
    def _encode_word(self, word: str) -> tuple[str, ...]:
        cache = self._cache
        try:
            result = cache[word]
            cache.move_to_end(word)
            return result
        except KeyError:
            pass
        symbols = list(word)
        n = len(symbols)
        if n > 1:
            ranks_get = self._ranks.get
            while True:
                best_rank = None
                best_i = -1
                prev = symbols[0]
                for i in range(n - 1):
                    nxt = symbols[i + 1]
                    rank = ranks_get((prev, nxt))
                    if rank is not None and (
                        best_rank is None or rank < best_rank
                    ):
                        best_rank = rank
                        best_i = i
                    prev = nxt
                if best_rank is None:
                    break
                symbols[best_i : best_i + 2] = [
                    symbols[best_i] + symbols[best_i + 1]
                ]
                n -= 1
        result = tuple(symbols)
        self._memo_put(cache, word, result)
        return result

    def _memo_put(self, memo: OrderedDict, key: str, value) -> None:
        """Store ``key`` in ``memo``, evicting the oldest entries to keep
        it under ``cache_size`` (``0`` stores nothing)."""
        if self.cache_size > 0:
            while len(memo) >= self.cache_size:
                try:
                    memo.popitem(last=False)
                except KeyError:  # racing evictor emptied it
                    break
            memo[key] = value

    def encode(self, text: str) -> list[int]:
        """Encode text into token ids."""
        ids: list[int] = []
        vocab = self._vocab
        encode_word = self._encode_word
        for word in pretokenize(text):
            for sym in encode_word(word):
                ids.append(vocab[sym])
        return ids

    def tokenize(self, text: str) -> list[str]:
        """Encode text into token strings (for inspection)."""
        out: list[str] = []
        encode_word = self._encode_word
        for word in pretokenize(text):
            out.extend(encode_word(word))
        return out

    def count_tokens(self, text: str) -> int:
        """Token count without materializing ids (the pruning hot path).

        No pre-token crosses a newline except a newline run, so the count
        of ``text`` is the sum of the counts of its lines and newline
        runs. Each distinct piece is counted once per tokenizer and
        memoized: rendered programs share most of their lines (7.2 MB of
        corpus source holds ~10.7k distinct pieces), so a corpus pass
        pre-tokenizes each line once, not once per program.
        """
        memo = self._line_counts
        pieces = Counter(text.split("\n"))
        pieces.pop("", None)  # no tokens
        runs = Counter(_NEWLINE_RUNS_RE.findall(text))
        # Every newline outside a longer run is a run of one.
        single = text.count("\n") - sum(len(r) * n for r, n in runs.items())
        if single:
            runs["\n"] = single
        pieces.update(runs)  # lines hold no newline: no key is shared
        total = 0
        for piece, freq in pieces.items():
            count = memo.get(piece)
            if count is None:
                count = self._count_piece(piece)
                self._memo_put(memo, piece, count)
            total += freq * count
        return total

    def _count_piece(self, text: str) -> int:
        """Token count of ``text``, counting each distinct word once."""
        total = 0
        encode_word = self._encode_word
        for word, freq in Counter(pretokenize(text)).items():
            total += freq * len(encode_word(word))
        return total

    def decode(self, ids: list[int]) -> str:
        rev = {i: s for s, i in self._vocab.items()}
        try:
            return "".join(rev[i] for i in ids)
        except KeyError as e:
            raise ValueError(f"unknown token id {e.args[0]}") from None

    @property
    def vocab_size(self) -> int:
        return len(self._vocab)

    # -- persistence -----------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"merges": [list(p) for p in self.merges]})

    @classmethod
    def from_json(cls, payload: str) -> "BpeTokenizer":
        data = json.loads(payload)
        return cls(merges=[tuple(p) for p in data["merges"]])
