"""Tests for the parallel, cached evaluation engine."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.eval.engine import (
    CachedResponse,
    DiskResponseStore,
    EvalEngine,
    MemoryResponseStore,
    cache_key,
)
from repro.eval.runner import run_queries
from repro.llm import get_model
from repro.llm.base import LlmModel
from repro.prompts import build_classify_prompt
from repro.types import Boundedness

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


class CountingModel(LlmModel):
    """LlmModel that counts how many completions it actually computes."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, *, temperature=None, top_p=None):
        with self._lock:
            self.calls += 1
        return super().complete(prompt, temperature=temperature, top_p=top_p)


def classify_items(samples, n):
    return [
        (s.uid, build_classify_prompt(s).text, s.label) for s in samples[:n]
    ]


class TestPoolEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 5, 16])
    def test_records_and_metrics_match_sequential(self, balanced_samples, jobs):
        model = get_model("o3-mini-high")
        items = classify_items(balanced_samples, 24)
        sequential = run_queries(model, items)
        parallel = run_queries(model, items, engine=EvalEngine(jobs=jobs))
        assert parallel == sequential
        assert parallel.records == sequential.records
        assert parallel.usage == sequential.usage
        assert parallel.metrics() == sequential.metrics()

    def test_cached_run_matches_uncached(self, balanced_samples):
        model = get_model("gpt-4o-mini")
        items = classify_items(balanced_samples, 16)
        baseline = run_queries(model, items)
        store = MemoryResponseStore()
        cold = run_queries(
            model, items, engine=EvalEngine(jobs=4, store=store)
        )
        warm = run_queries(
            model, items, engine=EvalEngine(jobs=4, store=store)
        )
        assert cold == baseline
        assert warm == baseline

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            EvalEngine().run(get_model("o1"), [])

    def test_sampling_rejection_propagates(self, balanced_samples):
        items = classify_items(balanced_samples, 4)
        with pytest.raises(ValueError):
            run_queries(
                get_model("o1"), items, temperature=0.7,
                engine=EvalEngine(jobs=4),
            )


class TestCacheAccounting:
    def test_hit_miss_counts(self, balanced_samples):
        model = CountingModel(get_model("o3-mini").config)
        items = classify_items(balanced_samples, 10)
        store = MemoryResponseStore()
        engine = EvalEngine(jobs=3, store=store)
        engine.run(model, items)
        assert engine.stats.hits == 0
        assert engine.stats.misses == 10
        assert engine.stats.completions == 10
        assert model.calls == 10
        assert len(store) == 10

        warm = EvalEngine(jobs=3, store=store)
        warm.run(model, items)
        assert warm.stats.hits == 10
        assert warm.stats.misses == 0
        assert warm.stats.completions == 0
        assert model.calls == 10  # zero new model completions

    def test_no_store_counts_uncached(self, balanced_samples):
        model = CountingModel(get_model("o3-mini").config)
        items = classify_items(balanced_samples, 5)
        engine = EvalEngine()
        engine.run(model, items)
        assert engine.stats.uncached == 5
        assert engine.stats.completions == 5
        assert engine.stats.hits == engine.stats.misses == 0

    def test_distinct_sampling_params_miss(self):
        model = get_model("gpt-4o-mini")
        store = MemoryResponseStore()
        engine = EvalEngine(store=store)
        engine.complete(model, "hello")
        engine.complete(model, "hello", temperature=0.1, top_p=0.2)
        # None params and explicit defaults are distinct cache entries.
        assert engine.stats.misses == 2


class TestCacheKeys:
    def test_distinct_configs_distinct_keys(self):
        a = get_model("gpt-4o-mini").config
        b = get_model("gpt-4o-mini-2024-07-18").config
        assert cache_key(a, "p") != cache_key(b, "p")

    def test_distinct_prompts_distinct_keys(self):
        cfg = get_model("o1").config
        assert cache_key(cfg, "p1") != cache_key(cfg, "p2")

    def test_params_change_key(self):
        cfg = get_model("gpt-4o-mini").config
        keys = {
            cache_key(cfg, "p"),
            cache_key(cfg, "p", temperature=0.1),
            cache_key(cfg, "p", temperature=0.1, top_p=0.2),
            cache_key(cfg, "p", top_p=0.2),
        }
        assert len(keys) == 4

    def test_stable_across_processes(self):
        cfg = get_model("o3-mini-high").config
        prompt = "Is saxpy compute-bound?\nAnswer:"
        local = cache_key(cfg, prompt, temperature=0.1, top_p=0.2)
        script = (
            "from repro.eval.engine import cache_key\n"
            "from repro.llm import get_model\n"
            "print(cache_key(get_model('o3-mini-high').config, "
            "'Is saxpy compute-bound?\\nAnswer:', temperature=0.1, top_p=0.2))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": "random"},
        )
        assert out.stdout.strip() == local


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskResponseStore(tmp_path / "cache")
        value = CachedResponse(
            text="Compute", input_tokens=11, output_tokens=1, reasoning_tokens=7
        )
        store.put("ab" + "0" * 62, value)
        assert store.get("ab" + "0" * 62) == value
        assert len(store) == 1
        assert store.size_bytes() > 0

    def test_missing_key_is_miss(self, tmp_path):
        store = DiskResponseStore(tmp_path / "cache")
        assert store.get("ff" + "0" * 62) is None

    def test_corrupt_segment_is_miss_and_put_repairs(
        self, tmp_path, run_holding
    ):
        store = DiskResponseStore(tmp_path / "cache")
        key = "cd" + "0" * 62
        value = CachedResponse("Bandwidth", 5, 1, 0)
        store.put(key, value)
        run_holding(store, key).write_text(
            "{not a segment", encoding="utf-8"
        )
        assert store.get(key) is None
        store.put(key, value)
        assert store.get(key) == value

    def test_clear(self, tmp_path):
        store = DiskResponseStore(tmp_path / "cache")
        store.put("ab" + "0" * 62, CachedResponse("Compute", 1, 1, 0))
        store.clear()
        assert len(store) == 0

    def test_clear_spares_foreign_files(self, tmp_path):
        """Regression: --cache-dir may point at a dir with unrelated
        content; clear() must remove cache entries only, never the rest."""
        root = tmp_path / "shared"
        root.mkdir()
        (root / "precious.txt").write_text("keep me", encoding="utf-8")
        (root / "subdir").mkdir()
        (root / "subdir" / "data.json").write_text("{}", encoding="utf-8")
        (root / "ab").mkdir()
        (root / "ab" / "notes.md").write_text("mine", encoding="utf-8")
        store = DiskResponseStore(root)
        store.put("ab" + "1" * 62, CachedResponse("Compute", 1, 1, 0))
        store.put("cd" + "2" * 62, CachedResponse("Bandwidth", 2, 1, 0))
        store.clear()
        assert len(store) == 0
        assert (root / "precious.txt").read_text(encoding="utf-8") == "keep me"
        assert (root / "subdir" / "data.json").exists()
        assert (root / "ab" / "notes.md").exists()  # shard dir kept: not empty
        assert not (root / "cd").exists()  # pure-cache shard removed

    def test_engine_reuses_disk_entries_across_instances(
        self, tmp_path, balanced_samples
    ):
        model = CountingModel(get_model("gemini-2.0-flash-001").config)
        items = classify_items(balanced_samples, 8)
        cold = EvalEngine(jobs=2, store=DiskResponseStore(tmp_path / "c"))
        first = cold.run(model, items)
        warm = EvalEngine(jobs=2, store=DiskResponseStore(tmp_path / "c"))
        second = warm.run(model, items)
        assert second == first
        assert warm.stats.hits == 8
        assert model.calls == 8

    def test_entry_blobs_parse_as_json(self, tmp_path):
        store = DiskResponseStore(tmp_path / "cache")
        key = "ef" + "0" * 62
        store.put(key, CachedResponse("Compute", 3, 1, 2))
        data = json.loads(store.get_blob(key))
        assert data["text"] == "Compute"
        assert data["reasoning_tokens"] == 2


class TestRq1Equivalence:
    def test_rq1_engine_matches_sequential(self):
        from repro.eval.rq1 import run_rq1

        model = get_model("gpt-4o-mini")
        sequential = run_rq1(model, num_rooflines=15, shot_counts=(2,))
        store = MemoryResponseStore()
        cold = run_rq1(
            model,
            num_rooflines=15,
            shot_counts=(2,),
            engine=EvalEngine(jobs=6, store=store),
        )
        warm = run_rq1(
            model,
            num_rooflines=15,
            shot_counts=(2,),
            engine=EvalEngine(jobs=6, store=store),
        )
        assert cold == sequential
        assert warm == sequential


class TestDecomposeEquivalence:
    def test_decompose_engine_matches_sequential(self, balanced_samples):
        from repro.eval.decompose import run_decompose_experiment

        model = get_model("o3-mini")
        samples = balanced_samples[:10]
        sequential = run_decompose_experiment(model, samples)
        store = MemoryResponseStore()
        parallel = run_decompose_experiment(
            model, samples, engine=EvalEngine(jobs=4, store=store)
        )
        warm = run_decompose_experiment(
            model, samples, engine=EvalEngine(jobs=4, store=store)
        )
        assert parallel.predictions == sequential.predictions
        assert warm.predictions == sequential.predictions
        assert warm.usage == parallel.usage


@pytest.mark.slow
class TestTable1Equivalence:
    def test_parallel_cached_table_matches_sequential(self, balanced_samples):
        from repro.eval.table1 import build_table1

        models = [get_model("o3-mini-high"), get_model("gpt-4o-mini")]
        samples = balanced_samples[:40]
        sequential = build_table1(samples, models=models, num_rooflines=10)
        store = MemoryResponseStore()
        cold = build_table1(
            samples,
            models=models,
            num_rooflines=10,
            engine=EvalEngine(jobs=8, store=store),
        )
        warm_engine = EvalEngine(jobs=8, store=store)
        warm = build_table1(
            samples, models=models, num_rooflines=10, engine=warm_engine
        )
        assert cold.render() == sequential.render()
        assert warm.render() == sequential.render()
        assert warm_engine.stats.misses == 0
        assert warm_engine.stats.hits > 0
