"""Property-based determinism tests for the evaluation engine.

Seeded corpus + seeded (deterministic) models must yield byte-identical
``RunResult`` artefacts no matter how the work is executed: any worker
count (the plain loop at one job, a thread pool above), any submission
shuffle, cold or warm cache, memory or disk store.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.engine import EvalEngine, MemoryResponseStore
from repro.eval.runner import run_queries
from repro.llm import MODEL_NAMES, get_model
from repro.prompts.rq1 import build_rq1_prompt, generate_rq1_questions
from repro.util.rng import RngStream

#: One shared seeded workload: RQ1 questions are corpus-free and cheap.
_QUESTIONS = generate_rq1_questions(12, seed_key="engine-props")
_ITEMS = tuple(
    (f"q{i}", build_rq1_prompt(q, shots=2), q.truth)
    for i, q in enumerate(_QUESTIONS)
)

run_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_bytes(result) -> bytes:
    """Canonical byte form of a RunResult (records + usage + name).

    ``repr`` is value-based (float reprs are exact), unlike ``pickle``
    whose output depends on object-identity sharing between records.
    """
    return repr(
        (result.model_name, result.records, sorted(result.usage.items()))
    ).encode("utf-8")


class TestParallelismInvariance:
    @run_settings
    @given(
        model_name=st.sampled_from(MODEL_NAMES),
        jobs=st.integers(min_value=1, max_value=12),
    )
    def test_jobs_never_change_result(self, model_name, jobs):
        model = get_model(model_name)
        baseline = run_queries(model, _ITEMS)
        parallel = run_queries(model, _ITEMS, engine=EvalEngine(jobs=jobs))
        assert run_bytes(parallel) == run_bytes(baseline)

    @run_settings
    @given(
        model_name=st.sampled_from(MODEL_NAMES),
        jobs=st.integers(min_value=1, max_value=8),
        shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_item_order_only_permutes_records(self, model_name, jobs, shuffle_seed):
        """Shuffled submission yields the same per-item records, permuted."""
        model = get_model(model_name)
        shuffled = RngStream("shuffle", shuffle_seed).shuffle(list(_ITEMS))
        baseline = {r.item_id: r for r in run_queries(model, _ITEMS).records}
        result = run_queries(model, shuffled, engine=EvalEngine(jobs=jobs))
        assert [r.item_id for r in result.records] == [i[0] for i in shuffled]
        for record in result.records:
            assert record == baseline[record.item_id]

    @run_settings
    @given(
        model_name=st.sampled_from(MODEL_NAMES),
        cold_jobs=st.integers(min_value=1, max_value=8),
        warm_jobs=st.integers(min_value=1, max_value=8),
    )
    def test_cache_warmth_never_changes_result(
        self, model_name, cold_jobs, warm_jobs
    ):
        model = get_model(model_name)
        baseline = run_queries(model, _ITEMS)
        store = MemoryResponseStore()
        cold = run_queries(
            model, _ITEMS, engine=EvalEngine(jobs=cold_jobs, store=store)
        )
        warm = run_queries(
            model, _ITEMS, engine=EvalEngine(jobs=warm_jobs, store=store)
        )
        assert run_bytes(cold) == run_bytes(baseline)
        assert run_bytes(warm) == run_bytes(baseline)

    @run_settings
    @given(jobs=st.integers(min_value=1, max_value=8))
    def test_disk_and_memory_stores_agree(self, jobs, tmp_path_factory):
        from repro.eval.engine import DiskResponseStore

        model = get_model("o3-mini-high")
        def run(store):
            return run_queries(
                model, _ITEMS, engine=EvalEngine(jobs=jobs, store=store)
            )

        mem = run(MemoryResponseStore())
        disk_dir = tmp_path_factory.mktemp("store")
        disk_cold = run(DiskResponseStore(disk_dir))
        disk_warm = run(DiskResponseStore(disk_dir))
        assert run_bytes(disk_cold) == run_bytes(mem)
        assert run_bytes(disk_warm) == run_bytes(mem)


class TestBackendInvariance:
    """The executor — the plain loop at ``jobs=1``, a thread pool above —
    is a pure execution detail."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        model_name=st.sampled_from(MODEL_NAMES),
        jobs=st.integers(min_value=1, max_value=6),
    )
    def test_backend_never_changes_result(self, model_name, jobs):
        model = get_model(model_name)
        baseline = run_queries(model, _ITEMS)
        result = run_queries(model, _ITEMS, engine=EvalEngine(jobs=jobs))
        assert run_bytes(result) == run_bytes(baseline)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        cold_jobs=st.integers(min_value=1, max_value=6),
        warm_jobs=st.integers(min_value=1, max_value=6),
    )
    def test_backend_cache_contents_identical(self, cold_jobs, warm_jobs):
        """Every worker count writes the same key → response mapping, and
        warm replays stay byte-identical across worker counts."""
        model = get_model("o3-mini-high")
        reference = MemoryResponseStore()
        baseline = run_queries(
            model, _ITEMS, engine=EvalEngine(jobs=1, store=reference)
        )
        store = MemoryResponseStore()
        cold = run_queries(
            model, _ITEMS, engine=EvalEngine(jobs=cold_jobs, store=store)
        )
        assert store._data == reference._data
        warm = run_queries(
            model, _ITEMS, engine=EvalEngine(jobs=warm_jobs, store=store)
        )
        assert store._data == reference._data
        assert run_bytes(cold) == run_bytes(baseline)
        assert run_bytes(warm) == run_bytes(baseline)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_backends_share_disk_cache_files(self, jobs, tmp_path):
        """A disk cache written at one worker count is replayed verbatim at
        every other: same compacted file set, zero new completions."""
        from repro.eval.engine import DiskResponseStore

        model = get_model("gpt-4o-mini")
        root = tmp_path / "store"
        writer = EvalEngine(jobs=jobs, store=DiskResponseStore(root))
        baseline = writer.run(model, _ITEMS)
        DiskResponseStore(root).compact()
        files = sorted(p.name for p in root.glob("responses-*.bin"))
        assert writer.stats.misses == len(_ITEMS)
        for reader_jobs in (1, 4):
            reader = EvalEngine(
                jobs=reader_jobs, store=DiskResponseStore(root)
            )
            replay = reader.run(model, _ITEMS)
            assert run_bytes(replay) == run_bytes(baseline)
            assert reader.stats.hits == len(_ITEMS)
            assert reader.stats.completions == 0
        DiskResponseStore(root).compact()
        assert sorted(p.name for p in root.glob("responses-*.bin")) == files

    def test_unknown_backend_rejected(self):
        """``backend`` accepts only the constant ``"thread"`` the benchmark
        harness passes and reads."""
        assert EvalEngine(backend="thread").backend == "thread"
        for name in ("process", "sequential", "fibers"):
            with pytest.raises(ValueError):
                EvalEngine(backend=name)
        with pytest.raises(TypeError):
            run_queries(get_model("o1"), _ITEMS, backend="thread")


class TestSeededPipelineDeterminism:
    @pytest.mark.slow
    def test_seeded_corpus_classification_reproduces(self, balanced_samples):
        """Same seeded dataset + model ⇒ byte-identical results at any
        execution plan, including across engine instances."""
        from repro.prompts import build_classify_prompt

        model = get_model("gemini-2.0-flash-001")
        items = [
            (s.uid, build_classify_prompt(s).text, s.label)
            for s in balanced_samples[:60]
        ]
        baseline = run_queries(model, items)
        store = MemoryResponseStore()
        plans = [
            dict(jobs=1),
            dict(jobs=7),
            dict(jobs=3, store=store),
            dict(jobs=5, store=store),  # warm
        ]
        for plan in plans:
            run = run_queries(model, items, engine=EvalEngine(**plan))
            assert run_bytes(run) == run_bytes(baseline)
