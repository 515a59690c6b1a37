"""Tests for the generic artifact store and the text-artifact pipeline.

Three contracts:

* **Store mechanics** (shared with :class:`ProfileStore` through the
  :class:`ArtifactStore` base): round trips are byte-exact, corrupt or
  version-skewed segments read as misses and are repaired by the next
  put, eviction is oldest-segment-first across the whole segment family,
  and a shared root honors one size bound.
* **Invisibility**: samples, token counts, and trained merges are
  byte-identical with the cache enabled, disabled, cold, or warm.
* **Render-once**: a multi-device matrix sweep renders and token-counts
  each program exactly once; a warm cache, zero times.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.dataset.build import build_sample, build_samples
from repro.dataset import text as text_mod
from repro.dataset.text import program_texts, rendered_sources
from repro.gpusim import device_for
from repro import runtime
from repro.gpusim.store import ProfileStore
from repro.kernels.corpus import build_corpus
from repro.store.base import ArtifactStore
from repro.store.text import (
    TEXT_VERSION,
    ArtifactCache,
    program_text_key,
    tokenizer_train_key,
)
from repro.tokenizer.bpe import BpeTokenizer
from repro.roofline.hardware import GPU_DATABASE

MERGES = [("a", "b"), ("ab", "c"), (" ", "f")]


def read_segment(path):
    """Decode one segment into a dict: the payload keys plus an
    ``entries`` dict."""
    from repro.store.base import _segment_view

    view = _segment_view(path)
    assert view is not None, f"unreadable segment {path}"
    data = dict(view.payload)
    data["entries"] = view.entries()
    return data


def write_segment(path, data):
    """Re-encode a ``read_segment``-shaped dict as a binary segment,
    installed the way writers install files (tmp + replace)."""
    from repro.store.base import encode_segment

    payload = {k: v for k, v in data.items() if k != "entries"}
    staging = path.with_name(path.name + ".install")
    staging.write_bytes(encode_segment(payload, data["entries"]))
    os.replace(staging, path)


@pytest.fixture()
def small_corpus():
    return build_corpus(8, 5)


@pytest.fixture()
def small_tokenizer():
    return BpeTokenizer(merges=list(MERGES))


class TestSharedBase:
    def test_every_store_shares_the_base(self):
        for cls in (ProfileStore, ArtifactCache):
            assert issubclass(cls, ArtifactStore)
        # The eviction/write/read machinery is inherited, not reimplemented.
        for name in ("_write_segment", "_live_views", "evict", "clear",
                     "size_bytes", "flush", "deferred"):
            for cls in (ProfileStore, ArtifactCache):
                assert getattr(cls, name) is getattr(ArtifactStore, name)

    def test_profile_segments_keep_payload_shape(self, tmp_path, run_holding):
        # The binary codec must keep recording exactly the pre-refactor
        # payload shape, so segment metadata stays forward-portable.
        from repro.gpusim import profile_corpus
        from repro.gpusim.store import (
            PROFILER_VERSION,
            device_profile_key,
            program_profile_key,
        )

        corpus = build_corpus(3, 2)
        device = device_for(next(iter(GPU_DATABASE.values())))
        store = ProfileStore(tmp_path / "ps")
        profile_corpus(corpus, device, store=store)
        path = run_holding(
            store, program_profile_key(corpus.programs[0]), "profiles-"
        )
        data = read_segment(path)
        assert set(data) == {"version", "key", "device", "entries"}
        assert data["version"] == PROFILER_VERSION
        assert data["key"] == device_profile_key(device)
        # Runs are named by a digest of their content.
        digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        assert path.name == f"profiles-{digest}.bin"


class TestTokenizerStore:
    """The artifact cache's tokenizer segment."""

    def test_round_trip(self, tmp_path):
        store = ArtifactCache(tmp_path / "ac")
        assert store.get_merges("k") is None
        store.put_merges("k", MERGES)
        assert store.get_merges("k") == MERGES

    def test_multiple_keys_share_one_segment(self, tmp_path):
        store = ArtifactCache(tmp_path / "ac")
        store.put_merges("k1", MERGES)
        store.put_merges("k2", MERGES[:1])
        assert store.get_merges("k1") == MERGES
        assert store.get_merges("k2") == MERGES[:1]
        store.compact()
        assert len(store._segment_files()) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path, run_holding):
        store = ArtifactCache(tmp_path / "ac")
        store.put_merges("good", MERGES)
        path = run_holding(store, "good")
        data = read_segment(path)
        data["entries"]["bad-shape"] = [["a", "b", "c"]]
        data["entries"]["bad-type"] = "zap"
        write_segment(path, data)
        assert store.get_merges("bad-shape") is None
        assert store.get_merges("bad-type") is None
        assert store.get_merges("good") == MERGES

    def test_corrupt_segment_reads_as_miss_and_put_repairs(
        self, tmp_path, run_holding
    ):
        store = ArtifactCache(tmp_path / "ac")
        store.put_merges("k", MERGES)
        run_holding(store, "k").write_text("{ not json", encoding="utf-8")
        assert store.get_merges("k") is None
        store.put_merges("k", MERGES)
        assert store.get_merges("k") == MERGES

    def test_version_skew_reads_as_miss(self, tmp_path, run_holding):
        store = ArtifactCache(tmp_path / "ac")
        store.put_merges("k", MERGES)
        path = run_holding(store, "k")
        data = read_segment(path)
        data["version"] = "text-artifacts-v999"
        write_segment(path, data)
        assert store.get_merges("k") is None


class TestRenderStore:
    """The artifact cache's source and token-count segments."""

    def test_sources_round_trip_byte_exact(self, tmp_path):
        store = ArtifactCache(tmp_path / "ac")
        sources = {
            "k1": "int main() {\n\treturn 0;\n}\n",
            "k2": "// weird: é \\ \" '\n\x0b",
            "k3": "",
        }
        store.put_sources(sources)
        assert store.get_sources(list(sources)) == sources
        assert store.get_sources(["missing"]) == {}

    def test_counts_round_trip_per_tokenizer(self, tmp_path):
        store = ArtifactCache(tmp_path / "ac")
        store.put_token_counts("tok-a", {"k1": 11, "k2": 22})
        store.put_token_counts("tok-b", {"k1": 99})
        assert store.get_token_counts("tok-a", ["k1", "k2"]) == {
            "k1": 11, "k2": 22,
        }
        assert store.get_token_counts("tok-b", ["k1", "k2"]) == {"k1": 99}
        assert store.get_token_counts("tok-c", ["k1"]) == {}

    def test_count_segment_guards_its_tokenizer_key(
        self, tmp_path, run_holding
    ):
        store = ArtifactCache(tmp_path / "ac")
        store.put_token_counts("tok-a", {"k1": 11})
        path = run_holding(store, "k1")
        data = read_segment(path)
        data["key"] = "tok-other"
        write_segment(path, data)
        assert store.get_token_counts("tok-a", ["k1"]) == {}

    def test_non_int_counts_read_as_misses(self, tmp_path, run_holding):
        store = ArtifactCache(tmp_path / "ac")
        store.put_token_counts("t", {"k1": 11})
        path = run_holding(store, "k1")
        data = read_segment(path)
        data["entries"]["k2"] = "12"
        data["entries"]["k3"] = True
        write_segment(path, data)
        assert store.get_token_counts("t", ["k1", "k2", "k3"]) == {"k1": 11}


class TestSharedLifecycle:
    def _populate(self, root):
        """One segment of every text kind, oldest → newest."""
        cache = ArtifactCache(root)
        cache.put_merges("k", MERGES)
        cache.put_sources({"k1": "x" * 64})
        cache.put_token_counts("tok-a", {"k1": 1})
        cache.put_token_counts("tok-b", {"k1": 2})
        return cache

    def test_eviction_is_oldest_first_across_kinds(
        self, tmp_path, run_holding
    ):
        root = tmp_path / "ac"
        cache = self._populate(root)
        files = cache._segment_files()
        assert len(files) == 4
        oldest = run_holding(cache, "k", "tokenizers-")
        past = time.time() - 3600
        os.utime(oldest, (past, past))

        bound = cache.size_bytes() - 1
        removed = cache.evict(bound)
        assert removed >= 1
        assert not oldest.exists()  # the tokenizer segment went first
        assert cache.size_bytes() <= bound

    def test_one_bound_spans_both_stores(self, tmp_path):
        root = tmp_path / "ac"
        cache = ArtifactCache(root, max_bytes=1)
        cache.put_merges("k", MERGES)
        cache.put_sources({"k1": "y" * 256})
        # Each put re-applied the bound over the whole family.
        assert cache.size_bytes() <= 1

    def test_clear_spans_both_stores_and_leaves_foreign_files(self, tmp_path):
        root = tmp_path / "ac"
        cache = self._populate(root)
        foreign = root / "README.txt"
        foreign.write_text("not a segment")
        cache.clear()
        assert foreign.exists()
        assert cache._segment_files() == []

    def test_missing_root_reads_empty(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never")
        assert cache.get_merges("k") is None
        assert cache.get_sources(["k"]) == {}
        assert cache.manifest().count("sources") == 0
        assert cache.evict(10) == 0
        cache.clear()  # no-op, no crash

    def test_manifest_bytes_match_eviction_view(self, tmp_path):
        # Version-skewed segments contribute no *entries* but still hold
        # disk space the eviction bound sees — the manifest must report
        # the bytes that are actually there, not just the valid ones.
        root = tmp_path / "ac"
        cache = self._populate(root)
        for path in cache._segment_files():
            data = read_segment(path)
            data["version"] = "text-artifacts-v999"
            write_segment(path, data)
        m = ArtifactCache(root).manifest()
        assert m.count("tokenizers") + m.count("sources") + m.count("counts") == 0
        assert m.total_bytes == cache.size_bytes() > 0
        assert m.stale_segments == 4  # surfaced for the cache manifest

    def test_manifest_counts(self, tmp_path):
        root = tmp_path / "ac"
        self._populate(root)
        m = ArtifactCache(root).manifest()
        assert m.version == TEXT_VERSION
        assert m.count("tokenizers") == 1
        assert m.count("sources") == 1
        assert m.count("counts") == 2
        assert m.segments("counts") == 2
        assert m.total_bytes > 0
        rendered = m.render()
        assert TEXT_VERSION in rendered
        assert "sources" in rendered

    def test_manifest_counts_buffered_tokenizer_entries(self, tmp_path):
        # Inside deferred() the tokenizer entry is still buffered; the
        # manifest must count it, matching the bytes it already reports.
        cache = ArtifactCache(tmp_path / "ac")
        with cache.deferred():
            cache.put_merges("k", MERGES)
            inside = cache.manifest()
        after = cache.manifest()
        assert inside.count("tokenizers") == after.count("tokenizers") == 1
        assert inside.total_bytes == after.total_bytes > 0


class TestArtifactRootPin:
    """The bytes one fixed workload leaves in an artifact root.

    Written only through the text pipeline and the CLI, so it pins the
    on-disk format independently of how the cache is put together. The
    generator digest is fixed too: corpus programs' keys hash it, and an
    edit to a kernel family changes keys, not the format."""

    #: (file name, sha256) of every run after compaction.
    GOLDEN_RUNS = {
        "sources-8cbeb96ad80951c540a0cb5fce9d5cb3.bin":
            "b840d5e4217189857879e9bd7afa39f58639f1c9d05374c9633e5657282de735",
        "tokencounts-54c0432bd3e96242684a71e2b02d62c5.bin":
            "dbf70898df0de19dc6ca4d45c1d4e9f1791d265fd1079e961e001e50af031098",
        "tokencounts-ef4e4013ba851bab2daf8ed768ff3f73.bin":
            "778c8efc74228d45b70c4c2ad5f9babe4293cedb2e047259a30e93ebdf03bb05",
        "tokenizers-5d124a1297967fa0db5e85614b0fe374.bin":
            "d9503714ee759322f6c3ab85f6c494fe98bc33fcc2d2d1e1052536ce519478fa",
    }

    def test_compacted_root_bytes_and_counts_are_pinned(
        self, tmp_path, small_corpus, small_tokenizer, fresh_memos,
        capsys, monkeypatch,
    ):
        from repro.cli import main
        from repro.kernels import corpus as corpus_mod
        from repro.store.text import TEXT_SEGMENT_PREFIXES
        from repro.tokenizer.pretrained import train_corpus_tokenizer

        monkeypatch.setattr(corpus_mod, "_DIGEST", "0" * 64)
        root = tmp_path / "ac"
        cache = ArtifactCache(root)
        trained = train_corpus_tokenizer(sample=6, num_merges=30, cache=cache)
        programs = list(small_corpus.programs[:5])
        for tok in (trained, small_tokenizer):
            program_texts(programs, tok, cache=cache)

        class TextFamily(ArtifactStore):
            version = TEXT_VERSION
            segment_prefixes = TEXT_SEGMENT_PREFIXES

        TextFamily(root).compact()
        runs = {
            (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path in root.iterdir()
        }
        assert runs == set(self.GOLDEN_RUNS.items())

        m = ArtifactCache(root).manifest()
        counts = (m.count("tokenizers"), m.count("sources"), m.count("counts"),
                  m.segments("counts"))
        assert counts == (1, 10, 10, 2)

        capsys.readouterr()
        assert main(["cache", "--artifact-cache", str(root)]) == 0
        out = capsys.readouterr().out
        for line in ("tokenizers: 1", "sources:    10",
                     "counts:     10 (2 tokenizers)"):
            assert line in out
        assert main(["doctor", "--dry-run", "--artifact-cache", str(root)]) == 0


class TestContentKeys:
    def test_text_key_distinguishes_programs(self, small_corpus):
        keys = {program_text_key(p) for p in small_corpus.programs}
        assert len(keys) == len(small_corpus.programs)

    def test_text_key_covers_render_knobs(self, small_corpus):
        import dataclasses

        p = small_corpus.programs[0]
        q = dataclasses.replace(p, host_verbosity=(p.host_verbosity + 1) % 3)
        assert program_text_key(p) != program_text_key(q)

    def test_text_key_is_version_pinned(self, small_corpus, monkeypatch):
        from repro.store import text as stext

        before = stext._compute_text_key(small_corpus.programs[0])
        monkeypatch.setattr(stext, "TEXT_VERSION", "text-artifacts-v999")
        assert stext._compute_text_key(small_corpus.programs[0]) != before

    def test_tokenizer_train_key_depends_on_inputs(self, small_corpus):
        programs = list(small_corpus.programs[:4])
        base = tokenizer_train_key(programs, 100)
        assert tokenizer_train_key(programs, 101) != base
        assert tokenizer_train_key(programs[:3], 100) != base
        assert tokenizer_train_key(programs, 100) == base


class TestTextPipeline:
    def test_results_identical_with_without_and_across_cache_states(
        self, small_corpus, small_tokenizer, tmp_path, fresh_memos
    ):
        programs = list(small_corpus.programs)
        bare = program_texts(programs, small_tokenizer, cache=None)
        fresh_memos()
        cache = ArtifactCache(tmp_path / "ac")
        cold = program_texts(programs, small_tokenizer, cache=cache)
        fresh_memos()
        warm = program_texts(programs, small_tokenizer, cache=cache)
        assert cold == bare
        assert warm == bare

    def test_warm_cache_renders_and_counts_nothing(
        self, small_corpus, small_tokenizer, tmp_path, fresh_memos,
        monkeypatch,
    ):
        programs = list(small_corpus.programs)
        cache = ArtifactCache(tmp_path / "ac")
        expected = program_texts(programs, small_tokenizer, cache=cache)
        fresh_memos()

        def _boom(*a, **k):
            raise AssertionError("warm cache must not recompute")

        monkeypatch.setattr(text_mod, "render_program", _boom)
        monkeypatch.setattr(BpeTokenizer, "count_tokens", _boom)
        assert program_texts(programs, small_tokenizer, cache=cache) == expected

    def test_counts_match_tokenizer_exactly(
        self, small_corpus, small_tokenizer, fresh_memos
    ):
        programs = list(small_corpus.programs[:3])
        texts = program_texts(programs, small_tokenizer, cache=None)
        for artifact in texts.values():
            assert artifact.token_count == small_tokenizer.count_tokens(
                artifact.source
            )

    def test_samples_identical_with_and_without_text_pass(
        self, small_corpus, small_tokenizer, fresh_memos
    ):
        device = device_for(next(iter(GPU_DATABASE.values())))
        via_pipeline = build_samples(
            small_corpus, device, small_tokenizer
        )
        direct = [
            build_sample(p, device, small_tokenizer)
            for p in small_corpus.programs
        ]
        assert via_pipeline == direct

    def test_sources_shared_between_tokenizer_training_and_dataset(
        self, tmp_path, fresh_memos
    ):
        # Training through rendered_sources seeds the same store segment
        # the dataset pass reads: one render, two consumers.
        from repro.tokenizer.pretrained import (
            train_corpus_tokenizer,
            training_programs,
        )

        cache = ArtifactCache(tmp_path / "ac")
        train_corpus_tokenizer(sample=6, num_merges=30, cache=cache)
        chosen = training_programs(sample=6)
        stored = cache.get_sources(
            [program_text_key(p) for p in chosen]
        )
        assert len(stored) == len(chosen)

    def test_warm_store_trains_zero_tokenizers(
        self, tmp_path, fresh_memos, monkeypatch
    ):
        from repro.tokenizer.pretrained import train_corpus_tokenizer

        cache = ArtifactCache(tmp_path / "ac")
        first = train_corpus_tokenizer(sample=6, num_merges=30, cache=cache)

        def _boom(*a, **k):
            raise AssertionError("warm store must not retrain")

        monkeypatch.setattr(BpeTokenizer, "train", _boom)
        again = train_corpus_tokenizer(sample=6, num_merges=30, cache=cache)
        assert again.merges == first.merges
        assert again.digest() == first.digest()

    def test_different_budget_misses_the_store(
        self, tmp_path, fresh_memos
    ):
        from repro.tokenizer.pretrained import train_corpus_tokenizer

        cache = ArtifactCache(tmp_path / "ac")
        small = train_corpus_tokenizer(sample=6, num_merges=10, cache=cache)
        large = train_corpus_tokenizer(sample=6, num_merges=30, cache=cache)
        assert len(small.merges) == 10
        assert len(large.merges) == 30


class TestRenderOnceMatrix:
    def test_multi_device_sweep_renders_each_program_once(
        self, fresh_memos, monkeypatch, tokenizer
    ):
        from repro.eval.matrix import scenario_samples
        from repro.kernels.corpus import default_corpus

        uids = tuple(p.uid for p in default_corpus().programs[7:12])
        gpus = list(GPU_DATABASE.values())[:3]

        renders = []
        real_render = text_mod.render_program
        monkeypatch.setattr(
            text_mod,
            "render_program",
            lambda p: renders.append(p.uid) or real_render(p),
        )
        counts = []
        real_count = BpeTokenizer.count_tokens
        monkeypatch.setattr(
            BpeTokenizer,
            "count_tokens",
            lambda self, text: counts.append(1) or real_count(self, text),
        )

        per_gpu = [scenario_samples(g, uids=uids) for g in gpus]

        # Device-independent text work ran once per program, not once per
        # (program, device); the per-device profiles still differ.
        assert sorted(renders) == sorted(uids)
        assert len(counts) == len(uids)
        for samples in per_gpu[1:]:
            for a, b in zip(per_gpu[0], samples):
                assert a.source == b.source
                assert a.token_count == b.token_count
        names = {s.gpu_name for samples in per_gpu for s in samples}
        assert len(names) == len(gpus)


class TestActiveCache:
    def test_env_var_activates_cache(
        self, small_corpus, small_tokenizer, tmp_path, monkeypatch,
        fresh_memos,
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "env-ac"))
        assert runtime.current().artifact_cache is not None
        program_texts(
            list(small_corpus.programs[:2]), small_tokenizer
        )  # default: the runtime's cache
        manifest = ArtifactCache(tmp_path / "env-ac").manifest()
        assert manifest.count("sources") == 2
        assert manifest.count("counts") == 2

    def test_empty_env_means_no_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "")
        assert runtime.current().artifact_cache is None

    def test_set_active_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "ignored"))
        runtime.install(artifact_cache=None)
        try:
            assert runtime.current().artifact_cache is None
        finally:
            runtime.reset()
        assert runtime.current().artifact_cache.root == tmp_path / "ignored"

    def test_env_max_bytes_parsed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "ac"))
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_MAX_BYTES", "4096")
        cache = runtime.current().artifact_cache
        assert cache is not None
        assert cache.max_bytes == 4096
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_MAX_BYTES", "junk")
        with pytest.warns(RuntimeWarning, match="size bound"):
            assert runtime.current().artifact_cache.max_bytes is None
