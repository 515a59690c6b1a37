"""E-tokenizer — incremental BPE + text-artifact store vs the seed path.

The seed repo paid two text taxes on every cold ``paper_dataset()``: the
BPE trainer recounted *every* pair frequency across the whole word dict
on each of 900 merge iterations, and every sample build rendered and
token-counted its program from scratch (once **per device** in a matrix
sweep). The incremental trainer updates only the words containing the
merged pair, `count_tokens` encodes each *distinct* word once, the
render/token-count pass is hoisted out of the per-device loop, and the
artifact cache persists tokenizers/sources/counts across processes.

This bench times the strategies over the full corpus and asserts

* the incremental trainer learns **byte-identical** merges to the seed
  trainer,
* a cold ``paper_dataset()`` with **no store** beats the seed-equivalent
  stage sum ≥3×,
* a warm-store cold process trains **0** tokenizers and renders **0**
  programs,
* `PaperDataset` samples and `MatrixResult.digest()` are byte-identical
  with the store on/off and across seed vs incremental training.
"""

from __future__ import annotations

import time
from collections import Counter

from repro import runtime
from repro.dataset import paper_dataset
from repro.dataset import text as text_mod
from repro.eval import matrix as matrix_mod
from repro.eval.engine import EvalEngine
from repro.eval.matrix import run_matrix
from repro.gpusim import default_device, profile_corpus
from repro.gpusim import profiler
from repro.gpusim.store import ProfileStore
from repro.kernels.codegen import render_program
from repro.kernels.corpus import default_corpus
from repro.llm.registry import get_model
from repro.roofline.hardware import GPU_DATABASE
from repro.store.text import ArtifactCache
from repro.tokenizer.bpe import BpeTokenizer, _word_to_symbols, pretokenize
from repro.tokenizer.pretrained import (
    NUM_MERGES,
    reset_corpus_tokenizer,
    training_programs,
)
from repro.util.tables import format_table


def seed_train(corpus, num_merges=3000, min_pair_count=2):
    """The seed repo's recount-everything trainer, replicated verbatim."""
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


def seed_count_tokens(tokenizer, text):
    """The seed per-occurrence counting loop (no distinct-word batching)."""
    total = 0
    for word in pretokenize(text):
        total += len(tokenizer._encode_word(word))
    return total


def _fresh():
    """Reset every in-process memo a cold process would start without."""
    for table in (
        profiler.PROFILE_BATCHES,
        profiler.TRACES,
        text_mod.SOURCES,
        text_mod.COUNTS,
        text_mod.KEYED_SOURCES,
        matrix_mod.SCENARIOS,
    ):
        table.clear()
    reset_corpus_tokenizer()


def test_text_pipeline_walltime(tmp_path):
    corpus = default_corpus()
    device = default_device()
    train_texts = [
        render_program(p).concatenated_source() for p in training_programs()
    ]
    rows = []

    try:
        # -- trainers: byte-identical merges, order-of-magnitude faster ----
        t0 = time.perf_counter()
        seed_merges = seed_train(train_texts, num_merges=NUM_MERGES)
        t_seed_train = time.perf_counter() - t0
        t0 = time.perf_counter()
        inc_tok = BpeTokenizer.train(train_texts, num_merges=NUM_MERGES)
        t_inc_train = time.perf_counter() - t0
        assert inc_tok.merges == seed_merges

        # -- the seed cold dataset path, as a stage sum --------------------
        # profile pass + per-program render + per-occurrence count, with a
        # cold encode cache — what build_samples cost before this PR
        # (classify/prune/split are excluded, which only understates the
        # seed side).
        _fresh()
        seed_tok = BpeTokenizer(merges=list(seed_merges))
        t0 = time.perf_counter()
        profile_corpus(corpus, device, store=None)
        seed_sources = {
            p.uid: render_program(p).concatenated_source()
            for p in corpus.programs
        }
        seed_counts = {
            uid: seed_count_tokens(seed_tok, text)
            for uid, text in seed_sources.items()
        }
        t_seed_build = time.perf_counter() - t0
        t_seed = t_seed_train + t_seed_build

        # -- new cold path, no store ---------------------------------------
        # Best of two fully-fresh runs: the ≥3x gate below runs on shared
        # CI runners, and min-wall is the standard way to strip scheduler
        # noise from a ~1s measurement (the seed side is long enough that
        # noise is proportionally negligible).
        runtime.install(profile_store=None, artifact_cache=None)
        t_new_cold = float("inf")
        for _ in range(2):
            _fresh()
            t0 = time.perf_counter()
            ds_cold = paper_dataset(force_rebuild=True)
            t_new_cold = min(t_new_cold, time.perf_counter() - t0)

        # -- cold process writing the stores -------------------------------
        runtime.install(
            profile_store=ProfileStore(tmp_path / "profile-store"),
            artifact_cache=ArtifactCache(tmp_path / "artifact-cache"),
        )
        _fresh()
        t0 = time.perf_counter()
        ds_store_cold = paper_dataset(force_rebuild=True)
        t_store_cold = time.perf_counter() - t0

        # -- warm-store cold process: 0 trainings, 0 renders ---------------
        _fresh()
        trainings = [0]
        renders = [0]
        real_train = BpeTokenizer.train.__func__
        real_render = text_mod.render_program

        def counting_train(cls, corpus_texts, **kwargs):
            trainings[0] += 1
            return real_train(cls, corpus_texts, **kwargs)

        def counting_render(program):
            renders[0] += 1
            return real_render(program)

        BpeTokenizer.train = classmethod(counting_train)
        text_mod.render_program = counting_render
        try:
            t0 = time.perf_counter()
            ds_warm = paper_dataset(force_rebuild=True)
            t_warm = time.perf_counter() - t0
        finally:
            BpeTokenizer.train = classmethod(real_train)
            text_mod.render_program = real_render

        rows = [
            ["seed train (40 texts, 900 merges)", t_seed_train, ""],
            ["incremental train", t_inc_train,
             f"{t_seed_train / t_inc_train:.2f}x"],
            ["seed build stages (profile+render+count)", t_seed_build, ""],
            ["seed cold paper_dataset (train+stages)", t_seed, "1.00x"],
            ["new cold paper_dataset, no store", t_new_cold,
             f"{t_seed / t_new_cold:.2f}x"],
            ["cold paper_dataset, writing stores", t_store_cold,
             f"{t_seed / t_store_cold:.2f}x"],
            ["warm-store cold paper_dataset", t_warm,
             f"{t_seed / t_warm:.2f}x"],
        ]
        print()
        print(format_table(
            ["strategy", "wall s", "vs seed"],
            [[label, f"{wall:.3f}", ratio] for label, wall, ratio in rows],
            title=(f"Text pipeline — {len(corpus.programs)} programs, "
                   f"{NUM_MERGES} merges"),
        ))
        print(f"warm-store trainings: {trainings[0]}, "
              f"renders: {renders[0]}")

        # Warm store recomputes nothing...
        assert trainings[0] == 0
        assert renders[0] == 0
        # ...the store is invisible in the results...
        assert ds_store_cold == ds_cold
        assert ds_warm == ds_cold
        # ...the seed text path agrees byte-for-byte...
        for sample in ds_cold.profiled:
            assert sample.source == seed_sources[sample.uid]
            assert sample.token_count == seed_counts[sample.uid]
        # ...and the whole pipeline is ≥3x faster than seed, storeless.
        assert t_seed / t_new_cold >= 3.0

        # -- matrix digests: store on/off must agree byte-for-byte ---------
        models = [get_model("o3-mini-high")]
        gpus = list(GPU_DATABASE.values())[:2]
        matrix_mod.SCENARIOS.clear()
        with_store = run_matrix(
            models, gpus, rqs=("rq2",), limit=25, engine=EvalEngine()
        ).digest()
        runtime.install(profile_store=None, artifact_cache=None)
        _fresh()
        without_store = run_matrix(
            models, gpus, rqs=("rq2",), limit=25, engine=EvalEngine()
        ).digest()
        assert with_store == without_store
    finally:
        runtime.reset()
        _fresh()
