"""Cache lifecycle: size-bounded eviction and the manifest.

Covers the ``DiskResponseStore`` bound (oldest-written entries evicted
first, amortised checks), the per-model manifest behind ``repro-paper
cache``, and the v2 record layout that tags entries with their model.
"""

import os
import time

import pytest

from repro.cli import main
from repro.eval.engine import CachedResponse, DiskResponseStore, EvalEngine
from repro.eval.runner import run_queries
from repro.llm import get_model
from repro.prompts.rq1 import build_rq1_prompt, generate_rq1_questions
from repro.store.families import RESPONSES


def _response(i: int, model: str = "test-model") -> CachedResponse:
    return CachedResponse(
        text=f"Compute {i}",
        input_tokens=10 + i,
        output_tokens=1,
        reasoning_tokens=0,
        model=model,
    )


def _fill(store: DiskResponseStore, n: int, *, model: str = "test-model"):
    keys = [f"{i:02x}{'0' * 62}" for i in range(n)]
    for i, key in enumerate(keys):
        store.put(key, _response(i, model=model))
    return keys


class TestEviction:
    def test_oldest_segments_evicted_first(self, tmp_path, run_holding):
        store = DiskResponseStore(tmp_path)
        keys = _fill(store, 8)  # one put per flush: one run per key
        # Age the first half explicitly (mtime drives eviction order).
        now = time.time()
        for i, key in enumerate(keys[:4]):
            seg = run_holding(store, key)
            os.utime(seg, (now - 1000 + i, now - 1000 + i))
        entry_size = store.size_bytes() // 8
        removed = store.evict(entry_size * 4)
        assert removed == 4
        survivors = {k for k, _ in store.iter_entries()}
        assert survivors == set(keys[4:])

    def test_evict_noop_under_bound(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 3)
        assert store.evict(store.size_bytes()) == 0
        assert len(store) == 3

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 3)
        assert store.evict() == 0
        assert store.max_bytes is None

    def test_immediate_puts_enforce_bound(self, tmp_path):
        store = DiskResponseStore(tmp_path, max_bytes=1)
        _fill(store, 4)  # outside deferred(): every put flushes + evicts
        assert len(store) == 0

    def test_deferred_puts_batch_into_one_segment(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        keys = [f"aa{i:062x}" for i in range(10)]  # one shared shard
        with store.deferred():
            for i, key in enumerate(keys):
                store.put(key, _response(i))
            # Pending entries serve reads before anything hits disk.
            assert store.get(keys[0]) == _response(0)
            assert store._segment_files() == []
        assert len(store._segment_files()) == 1  # one merge for the batch
        assert {k for k, _ in store.iter_entries()} == set(keys)

    def test_zero_bound_keeps_nothing_negative_rejected(self, tmp_path):
        # 0 used to silently coerce to "unbounded" — now it means what it
        # says (keep nothing), and negatives are rejected outright.
        store = DiskResponseStore(tmp_path / "zero", max_bytes=0)
        assert store.max_bytes == 0
        _fill(store, 2)
        assert len(store) == 0
        with pytest.raises(ValueError):
            DiskResponseStore(tmp_path / "neg", max_bytes=-5)
        # evict() follows the constructor's convention: a negative bound
        # raises instead of reading as "over any bound" and emptying the
        # store, and 0 keeps nothing.
        unbounded = DiskResponseStore(tmp_path / "ub")
        _fill(unbounded, 2)
        with pytest.raises(ValueError, match="max_bytes must be >= 0"):
            unbounded.evict(-1)
        assert len(unbounded) == 2
        assert unbounded.evict(0) == 2
        assert len(unbounded) == 0

    def test_engine_sweep_respects_bound(self):
        questions = generate_rq1_questions(8, seed_key="evict")
        items = [
            (f"q{i}", build_rq1_prompt(q, shots=2), q.truth)
            for i, q in enumerate(questions)
        ]
        model = get_model("gpt-4o-mini")
        unbounded = run_queries(model, items)
        # A bounded store must degrade capacity, never correctness.
        import tempfile

        with tempfile.TemporaryDirectory() as root:
            store = DiskResponseStore(root, max_bytes=1)
            store.DEFERRED_FLUSH_ENTRIES = 4
            engine = EvalEngine(jobs=2, store=store)
            bounded = engine.run(model, items)
            assert bounded.records == unbounded.records
            assert len(store) < len(items)


class TestManifest:
    def test_counts_age_and_models(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 3, model="model-a")
        keys_b = [f"f{i:01x}{'0' * 62}" for i in range(2)]
        for i, key in enumerate(keys_b):
            store.put(key, _response(i, model="model-b"))
        manifest = store.manifest()
        assert manifest.count("entries") == 5
        assert manifest.total_bytes == store.size_bytes()
        assert manifest.breakdown == (("model-a", 3), ("model-b", 2))
        assert manifest.oldest_age_s >= manifest.newest_age_s >= 0.0

    def test_empty_store(self, tmp_path):
        manifest = DiskResponseStore(tmp_path).manifest()
        assert manifest.count("entries") == 0
        assert manifest.oldest_age_s is None
        assert manifest.breakdown == ()

    def test_render_lists_models(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 2, model="o3-mini-high")
        text = store.manifest().render()
        assert "entries:   2" in text
        assert "o3-mini-high: 2" in text

    def test_plain_store_has_no_source_provenance(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 2)
        manifest = store.manifest()
        assert manifest.per_source == ()
        assert "merged from" not in manifest.render()

    def test_missing_dir_manifest_is_empty_not_an_error(self, tmp_path):
        manifest = DiskResponseStore(tmp_path / "never-created").manifest()
        assert manifest.count("entries") == 0
        assert manifest.per_source == ()

    def test_provenance_counts_only_live_entries(self, tmp_path, run_holding):
        store = DiskResponseStore(tmp_path)
        keys = _fill(store, 3)
        store.record_provenance({k: "shard-x" for k in keys})
        # Evicted or wiped entry: drop its (single-entry) run.
        run_holding(store, keys[0]).unlink()
        manifest = store.manifest()
        assert dict(manifest.per_source) == {"shard-x": 2}
        assert "merged from shard-x: 2" in manifest.render()

    def test_untagged_v1_style_entry_skipped_gracefully(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        _fill(store, 1)
        store.put(
            "ab" + "0" * 62,
            CachedResponse("Compute", 5, 1, 0, model=""),
        )
        manifest = store.manifest()
        assert manifest.count("entries") == 2
        assert ("<untagged>", 1) in manifest.breakdown


class TestRecordModelTag:
    def test_round_trip_preserves_model(self):
        r = _response(1, model="o1")
        assert CachedResponse.from_dict(r.to_dict()) == r

    def test_engine_tags_entries_with_model(self, tmp_path):
        model = get_model("o3-mini")
        q = generate_rq1_questions(1, seed_key="tag")[0]
        items = [("q0", build_rq1_prompt(q, shots=2), q.truth)]
        store = DiskResponseStore(tmp_path)
        run_queries(model, items, engine=EvalEngine(store=store))
        manifest = store.manifest()
        assert dict(manifest.breakdown) == {"o3-mini": 1}

    def test_missing_model_field_defaults_empty(self):
        r = CachedResponse.from_dict({
            "text": "Bandwidth", "input_tokens": 1,
            "output_tokens": 1, "reasoning_tokens": 0,
        })
        assert r.model == ""


def _cli_bound() -> int | None:
    """The size bound of the response store the CLI builds from its env."""
    from repro import cli

    args = cli.build_parser().parse_args(["rq2"])
    return cli._open_store(args, RESPONSES).max_bytes


class TestEnvDefaults:
    def test_env_bound_parsed(self, monkeypatch):
        monkeypatch.setenv(RESPONSES.bound_env, "12345")
        assert _cli_bound() == 12345

    @pytest.mark.parametrize("raw", ["", "  "])
    def test_env_bound_blank_means_unbounded(self, monkeypatch, raw):
        monkeypatch.setenv(RESPONSES.bound_env, raw)
        assert _cli_bound() is None

    @pytest.mark.parametrize("raw", ["banana", "1GB", "-3"])
    def test_env_bound_warns_on_junk(self, monkeypatch, raw):
        # Junk used to silently mean "unbounded"; it still falls back to
        # unbounded but must say so.
        monkeypatch.setenv(RESPONSES.bound_env, raw)
        with pytest.warns(RuntimeWarning, match="size bound"):
            assert _cli_bound() is None

    def test_env_bound_zero_parses_as_zero(self, monkeypatch):
        monkeypatch.setenv(RESPONSES.bound_env, "0")
        assert _cli_bound() == 0


class TestCacheCli:
    def test_manifest_output(self, capsys, tmp_path):
        store = DiskResponseStore(tmp_path / "c")
        _fill(store, 4, model="gpt-4o-mini")
        assert main(["cache", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries:   4" in out
        assert "gpt-4o-mini: 4" in out

    def test_max_bytes_evicts(self, capsys, tmp_path):
        store = DiskResponseStore(tmp_path / "c")
        _fill(store, 4)
        assert main([
            "cache", "--cache-dir", str(tmp_path / "c"), "--max-bytes", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "evicted 4 segments" in out
        assert len(store) == 0

    def test_wipe_still_works(self, capsys, tmp_path):
        store = DiskResponseStore(tmp_path / "c")
        _fill(store, 2)
        assert main(["cache", "--cache-dir", str(tmp_path / "c"), "--wipe"]) == 0
        assert "wiped 2 entries" in capsys.readouterr().out
        assert len(store) == 0
