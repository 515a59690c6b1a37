"""Sharded sweep subsystem (repro.eval.shard).

Three layers of guarantees:

* **Planner properties** (hypothesis): shard plans are a partition —
  pairwise disjoint, complete, balanced within one unit — and stable under
  any reordering of the input grid.
* **Merge properties** (hypothesis): for any split of an entry set across
  shard stores (overlaps included), the merged store equals the
  directly-written store byte-for-byte.
* **End-to-end**: running every shard of a real (model × GPU × RQ × kernel)
  grid through separate engines/stores, then merging, yields a cache that
  replays the full matrix with zero new completions and a report identical
  to the unsharded run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.engine import CachedResponse, DiskResponseStore, EvalEngine
from repro.eval.matrix import run_matrix
from repro.eval.shard import (
    CacheMergeConflict,
    WorkUnit,
    grid_units,
    merge_caches,
    parse_shard_spec,
    plan_shards,
    run_shard,
)
from repro.llm import get_model
from repro.roofline.hardware import get_gpu
from repro.store.base import MERGE_PROVENANCE_FILENAME


class TestShardSpec:
    @pytest.mark.parametrize("spec,expected", [
        ("0/1", (0, 1)),
        ("2/3", (2, 3)),
        (" 1/4 ", (1, 4)),
        ("0/16", (0, 16)),
    ])
    def test_valid(self, spec, expected):
        assert parse_shard_spec(spec) == expected

    @pytest.mark.parametrize("spec", [
        "3/3", "4/3", "-1/3", "0/0", "0/-1", "1", "a/b", "1/2/3", "", "/",
    ])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_shard_spec(spec)


def _units(n: int) -> list[WorkUnit]:
    return [
        WorkUnit(f"m{i % 3}", f"g{i % 2}", "rq2", f"uid-{i}") for i in range(n)
    ]


#: Unique work-unit lists over small alphabets (collisions across fields
#: exercise the canonical sort's tie-breaking).
unit_lists = st.lists(
    st.builds(
        WorkUnit,
        model_name=st.sampled_from(["m0", "m1", "m2"]),
        gpu_name=st.sampled_from(["g0", "g1"]),
        rq=st.sampled_from(["rq2", "rq3"]),
        uid=st.integers(min_value=0, max_value=200).map(lambda i: f"u{i}"),
    ),
    min_size=1,
    max_size=60,
    unique=True,
)


class TestPlannerProperties:
    @settings(max_examples=60, deadline=None)
    @given(units=unit_lists, num_shards=st.integers(1, 8))
    def test_plan_is_a_balanced_partition(self, units, num_shards):
        plan = plan_shards(units, num_shards)
        assert plan.num_shards == num_shards
        flat = [u for shard in plan.shards for u in shard]
        # Complete and disjoint: every unit exactly once.
        assert sorted(flat) == sorted(units)
        assert len(set(flat)) == len(flat) == len(units)
        # Balanced within one unit.
        sizes = [len(shard) for shard in plan.shards]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=40, deadline=None)
    @given(
        units=unit_lists,
        num_shards=st.integers(1, 8),
        data=st.data(),
    )
    def test_plan_stable_under_reordering(self, units, num_shards, data):
        shuffled = data.draw(st.permutations(units))
        assert plan_shards(shuffled, num_shards) == plan_shards(
            units, num_shards
        )

    def test_duplicates_rejected(self):
        units = _units(4) + [_units(4)[0]]
        with pytest.raises(ValueError, match="duplicate"):
            plan_shards(units, 2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(_units(4), 0)

    def test_more_shards_than_units_gives_empty_shards(self):
        plan = plan_shards(_units(2), 5)
        assert plan.total_units == 2
        assert sum(1 for s in plan.shards if s) == 2

    def test_shard_index_validated(self):
        plan = plan_shards(_units(4), 2)
        with pytest.raises(IndexError):
            plan.shard(2)

    def test_grid_units_cartesian(self):
        units = grid_units(["a", "b"], ["g"], ("rq2", "rq3"), ["u1", "u2"])
        assert len(units) == 2 * 1 * 2 * 2
        assert len(set(units)) == len(units)


def _entry(i: int) -> CachedResponse:
    return CachedResponse(
        text=f"Compute {i}",
        input_tokens=i,
        output_tokens=1,
        reasoning_tokens=0,
        model=f"model-{i % 2}",
    )


def _key(i: int) -> str:
    return f"{i:064x}"


def _entry_files(root) -> dict:
    """A store's run files once compacted: one canonical run per store."""
    from pathlib import Path

    root = Path(root)
    DiskResponseStore(root).compact()
    return {p.name: p.read_bytes() for p in root.glob("responses-*.bin")}


class TestMergeProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_entries=st.integers(1, 24),
        n_shards=st.integers(1, 5),
        data=st.data(),
    )
    def test_merge_equals_single_store_byte_for_byte(
        self, tmp_path_factory, n_entries, n_shards, data
    ):
        """Any assignment of entries to shard stores — overlaps included —
        merges into exactly the store a single writer would produce."""
        root = tmp_path_factory.mktemp("merge-prop")
        single = DiskResponseStore(root / "single")
        shards = [DiskResponseStore(root / f"shard-{j}") for j in range(n_shards)]
        for i in range(n_entries):
            single.put(_key(i), _entry(i))
            # Each entry lands on >= 1 shard; duplicates are legal (a
            # retried shard re-computes identical content).
            owners = data.draw(
                st.sets(
                    st.integers(0, n_shards - 1), min_size=1, max_size=n_shards
                )
            )
            for j in owners:
                shards[j].put(_key(i), _entry(i))
        report = merge_caches(
            [s.root for s in shards], root / "merged"
        )
        assert _entry_files(root / "merged") == _entry_files(root / "single")
        assert report.merged == n_entries


class TestMergeCaches:
    def test_conflict_raises(self, tmp_path):
        a = DiskResponseStore(tmp_path / "a")
        b = DiskResponseStore(tmp_path / "b")
        a.put(_key(1), _entry(1))
        b.put(_key(1), _entry(2))  # same key, different content
        with pytest.raises(CacheMergeConflict, match="merge conflict"):
            merge_caches([a.root, b.root], tmp_path / "merged")

    def test_conflict_with_existing_dest(self, tmp_path):
        dest = DiskResponseStore(tmp_path / "merged")
        dest.put(_key(1), _entry(1))
        src = DiskResponseStore(tmp_path / "src")
        src.put(_key(1), _entry(2))
        with pytest.raises(CacheMergeConflict):
            merge_caches([src.root], dest.root)

    def test_missing_and_empty_sources_tolerated(self, tmp_path):
        real = DiskResponseStore(tmp_path / "real")
        real.put(_key(1), _entry(1))
        (tmp_path / "empty").mkdir()
        report = merge_caches(
            [tmp_path / "missing", tmp_path / "empty", real.root],
            tmp_path / "merged",
        )
        assert report.merged == 1
        assert set(report.empty_sources) == {
            str(tmp_path / "missing"), str(tmp_path / "empty"),
        }
        assert len(DiskResponseStore(tmp_path / "merged")) == 1

    def test_duplicates_counted_not_copied(self, tmp_path):
        a = DiskResponseStore(tmp_path / "a")
        b = DiskResponseStore(tmp_path / "b")
        for i in range(3):
            a.put(_key(i), _entry(i))
        b.put(_key(0), _entry(0))  # overlap, identical bytes
        b.put(_key(9), _entry(9))
        report = merge_caches([a.root, b.root], tmp_path / "merged")
        assert report.merged == 4
        assert report.duplicates == 1
        assert dict(report.per_source) == {
            str(a.root): 3, str(b.root): 1,
        }

    def test_size_bound_honored(self, tmp_path):
        a = DiskResponseStore(tmp_path / "a")
        for i in range(8):
            a.put(_key(i), _entry(i))
        entry_size = a.size_bytes() // 8
        report = merge_caches(
            [a.root], tmp_path / "merged", max_bytes=entry_size * 3
        )
        assert report.evicted > 0
        merged = DiskResponseStore(tmp_path / "merged")
        assert merged.size_bytes() <= entry_size * 3

    def test_provenance_recorded_and_in_manifest(self, tmp_path):
        a = DiskResponseStore(tmp_path / "shard-a")
        b = DiskResponseStore(tmp_path / "shard-b")
        a.put(_key(0), _entry(0))
        a.put(_key(1), _entry(1))
        b.put(_key(2), _entry(2))
        merge_caches([a.root, b.root], tmp_path / "merged")
        merged = DiskResponseStore(tmp_path / "merged")
        manifest = merged.manifest()
        assert dict(manifest.per_source) == {
            str(a.root): 2, str(b.root): 1,
        }
        text = manifest.render()
        assert f"merged from {a.root}: 2" in text
        # The sidecar is not an entry: counts and sizes ignore it.
        assert manifest.count("entries") == 3
        assert len(merged) == 3

    def test_provenance_sidecar_survives_repeat_merge(self, tmp_path):
        a = DiskResponseStore(tmp_path / "a")
        b = DiskResponseStore(tmp_path / "b")
        a.put(_key(0), _entry(0))
        b.put(_key(1), _entry(1))
        merge_caches([a.root], tmp_path / "merged")
        merge_caches([b.root], tmp_path / "merged")
        merged = DiskResponseStore(tmp_path / "merged")
        assert dict(merged.manifest().per_source) == {
            str(a.root): 1, str(b.root): 1,
        }

    def test_conflict_abort_preserves_partial_provenance(self, tmp_path):
        good = DiskResponseStore(tmp_path / "good")
        good.put(_key(0), _entry(0))
        bad = DiskResponseStore(tmp_path / "bad")
        bad.put(_key(1), _entry(1))
        dest = DiskResponseStore(tmp_path / "merged")
        dest.put(_key(1), _entry(2))  # conflicts with bad's entry
        with pytest.raises(CacheMergeConflict):
            merge_caches([good.root, bad.root], dest.root)
        # good's entry stayed installed and stayed labelled, so a retry
        # without the bad source still reports where it came from.
        assert dest.provenance() == {_key(0): str(good.root)}
        retry = merge_caches([good.root], dest.root)
        assert retry.duplicates == 1
        assert dict(dest.manifest().per_source) == {str(good.root): 1}

    def test_reinstalled_key_takes_new_source_label(
        self, tmp_path, run_holding
    ):
        a = DiskResponseStore(tmp_path / "a")
        b = DiskResponseStore(tmp_path / "b")
        a.put(_key(0), _entry(0))
        b.put(_key(0), _entry(0))  # same bytes: a legal duplicate
        merge_caches([a.root], tmp_path / "merged")
        merged = DiskResponseStore(tmp_path / "merged")
        # Size-bound churn: the entry is evicted, then re-merged from b.
        run_holding(merged, _key(0)).unlink()
        merge_caches([b.root], tmp_path / "merged")
        # The stale a-label was pruned, not resurrected.
        assert merged.provenance() == {_key(0): str(b.root)}
        assert dict(merged.manifest().per_source) == {str(b.root): 1}

    def test_torn_provenance_sidecar_reads_as_none(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        store.put(_key(0), _entry(0))
        (tmp_path / MERGE_PROVENANCE_FILENAME).write_text("{not json")
        assert store.provenance() == {}
        assert store.manifest().per_source == ()

    def test_clear_removes_sidecar(self, tmp_path):
        a = DiskResponseStore(tmp_path / "a")
        a.put(_key(0), _entry(0))
        merge_caches([a.root], tmp_path / "merged")
        merged = DiskResponseStore(tmp_path / "merged")
        merged.clear()
        assert not (tmp_path / "merged" / MERGE_PROVENANCE_FILENAME).exists()
        assert len(merged) == 0


#: The end-to-end grid: small enough for tier-1, wide enough to span two
#: GPUs and both balance remainders (2 models x 2 GPUs x 8 kernels = 32
#: units over 3 shards -> 11/11/10).
E2E_MODELS = ("o3-mini-high", "gpt-4o-mini")
E2E_GPUS = ("V100", "H100")
E2E_LIMIT = 8
E2E_SHARDS = 3


class TestShardedSweepEndToEnd:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory, dataset):
        root = tmp_path_factory.mktemp("sharded-sweep")
        models = [get_model(n) for n in E2E_MODELS]
        gpus = [get_gpu(n) for n in E2E_GPUS]
        reports = []
        for i in range(E2E_SHARDS):
            store = DiskResponseStore(root / f"shard-{i}")
            engine = EvalEngine(jobs=2, store=store)
            reports.append(
                run_shard(
                    models,
                    gpus,
                    shard_index=i,
                    num_shards=E2E_SHARDS,
                    rqs=("rq2",),
                    limit=E2E_LIMIT,
                    engine=engine,
                )
            )
        merge_report = merge_caches(
            [root / f"shard-{i}" for i in range(E2E_SHARDS)], root / "merged"
        )
        return root, models, gpus, reports, merge_report

    def test_shards_cover_the_grid(self, sharded):
        _, _, _, reports, _ = sharded
        total = len(E2E_MODELS) * len(E2E_GPUS) * E2E_LIMIT
        assert sum(r.units for r in reports) == total
        assert all(r.total_units == total for r in reports)
        sizes = sorted(r.units for r in reports)
        assert max(sizes) - min(sizes) <= 1

    def test_merged_cache_equals_single_run_byte_for_byte(
        self, sharded, tmp_path
    ):
        root, models, gpus, _, merge_report = sharded
        single = DiskResponseStore(tmp_path / "single")
        run_matrix(
            models, gpus, rqs=("rq2",), limit=E2E_LIMIT,
            engine=EvalEngine(jobs=2, store=single),
        )
        assert _entry_files(root / "merged") == _entry_files(single.root)
        assert merge_report.merged == len(single)
        assert merge_report.duplicates == 0

    def test_merged_replay_is_hit_only_and_report_identical(self, sharded):
        root, models, gpus, _, _ = sharded
        warm = EvalEngine(jobs=2, store=DiskResponseStore(root / "merged"))
        replayed = run_matrix(
            models, gpus, rqs=("rq2",), limit=E2E_LIMIT, engine=warm
        )
        assert warm.stats.completions == 0
        assert warm.stats.hits == len(E2E_MODELS) * len(E2E_GPUS) * E2E_LIMIT
        fresh = run_matrix(
            models, gpus, rqs=("rq2",), limit=E2E_LIMIT, engine=EvalEngine()
        )
        assert replayed == fresh
        assert replayed.digest() == fresh.digest()
        assert replayed.render() == fresh.render()

    def test_rerun_of_a_shard_is_all_hits(self, sharded):
        root, models, gpus, reports, _ = sharded
        store = DiskResponseStore(root / "shard-0")
        engine = EvalEngine(jobs=2, store=store)
        again = run_shard(
            models, gpus, shard_index=0, num_shards=E2E_SHARDS,
            rqs=("rq2",), limit=E2E_LIMIT, engine=engine,
        )
        assert again == reports[0]
        assert engine.stats.completions == 0
        assert engine.stats.hits == reports[0].units

    def test_shard_report_renders(self, sharded):
        _, _, _, reports, _ = sharded
        text = reports[0].render()
        assert f"Shard 0/{E2E_SHARDS}" in text
        assert "V100" in text and "H100" in text


class TestRunShardValidation:
    def test_unknown_rq_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix regime"):
            run_shard(
                [get_model("o1")], [get_gpu("V100")],
                shard_index=0, num_shards=2, rqs=("rq1",),
            )

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            run_shard(
                [get_model("o1")], [get_gpu("V100")],
                shard_index=0, num_shards=2, limit=-335,
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_shard([], [get_gpu("V100")], shard_index=0, num_shards=1)
        with pytest.raises(ValueError):
            run_shard([get_model("o1")], [], shard_index=0, num_shards=1)

    def test_out_of_range_shard_rejected(self, dataset):
        with pytest.raises(IndexError):
            run_shard(
                [get_model("o1")], [get_gpu("V100")],
                shard_index=3, num_shards=3, limit=2,
            )
