"""Tests for the hardware scenario matrix (repro.eval.matrix).

The golden-label suite pins the cross-device ground truth: a fixed kernel
subset profiled on all six database GPUs must keep its per-device
classifications — including the known label flips — stable across
refactors. Profiling is deterministic per (kernel, device), so these are
exact assertions, not tolerances.
"""

import pytest

from repro.eval.matrix import (
    grid_uids,
    label_flips,
    run_matrix,
    scenario_samples,
)
from repro.eval.rq23 import MATRIX_RQS
from repro.llm import get_model
from repro.roofline.hardware import (
    GPU_DATABASE,
    get_gpu,
    resolve_gpus,
    short_gpu_name,
)

#: Database order; golden label vectors below follow it.
GPU_ORDER = (
    "NVIDIA GeForce RTX 3080",
    "NVIDIA Tesla V100",
    "NVIDIA A100",
    "AMD Instinct MI100",
    "NVIDIA GeForce RTX 2080 Ti",
    "NVIDIA H100 PCIe",
)

#: uid → per-device truth in GPU_ORDER. The flip patterns are physical:
#: kernels compute-bound on bandwidth-starved gaming parts (RTX 3080 /
#: 2080 Ti) go bandwidth-bound on HPC parts (V100/A100/MI100/H100), and
#: H100's huge compute peak flips a few more kernels that every other
#: device still calls compute-bound.
GOLDEN_LABELS = {
    "cuda/blackscholes-v1": ("CB", "BB", "BB", "BB", "CB", "BB"),
    "cuda/stencil3d7-v1": ("CB", "BB", "BB", "BB", "CB", "BB"),
    "cuda/bessel_series-v4": ("CB", "CB", "CB", "CB", "CB", "BB"),
    "cuda/batch_gemm4-v4": ("CB", "CB", "CB", "CB", "BB", "BB"),
    "cuda/horner_poly-v4": ("CB", "CB", "CB", "BB", "CB", "BB"),
    "omp/covariance_cols-v1": ("CB", "BB", "CB", "CB", "CB", "CB"),
    # Controls: kernels far from every ridge never flip.
    "cuda/absdiff-v1": ("BB", "BB", "BB", "BB", "BB", "BB"),
    "cuda/bessel_series-v1": ("CB", "CB", "CB", "CB", "CB", "CB"),
}

GOLDEN_UIDS = tuple(GOLDEN_LABELS)


@pytest.fixture(scope="module")
def golden_samples_by_gpu():
    """The golden subset profiled on every database GPU (subset-only, so
    this never builds the full dataset)."""
    return {
        name: scenario_samples(spec, uids=GOLDEN_UIDS)
        for name, spec in GPU_DATABASE.items()
    }


class TestGoldenLabels:
    def test_gpu_database_order_matches_goldens(self):
        assert tuple(GPU_DATABASE) == GPU_ORDER

    @pytest.mark.parametrize("uid", GOLDEN_UIDS)
    def test_cross_device_labels_stable(self, golden_samples_by_gpu, uid):
        for gpu_name, expected in zip(GPU_ORDER, GOLDEN_LABELS[uid]):
            sample = next(
                s for s in golden_samples_by_gpu[gpu_name] if s.uid == uid
            )
            assert sample.label.value == expected, (
                f"{uid} on {gpu_name}: expected {expected}, "
                f"got {sample.label.value}"
            )

    def test_flip_report_finds_exactly_the_flipping_goldens(
        self, golden_samples_by_gpu
    ):
        flips = label_flips(golden_samples_by_gpu)
        expected = {
            uid
            for uid, labels in GOLDEN_LABELS.items()
            if len(set(labels)) > 1
        }
        assert {f.uid for f in flips} == expected
        for flip in flips:
            assert len(flip.distinct_labels) == 2
            assert tuple(l.value for _, l in flip.labels) == GOLDEN_LABELS[
                flip.uid
            ]

    def test_scenario_sample_metadata_tracks_device(self, golden_samples_by_gpu):
        for gpu_name, samples in golden_samples_by_gpu.items():
            assert [s.uid for s in samples] == list(GOLDEN_UIDS)
            assert all(s.gpu_name == gpu_name for s in samples)


class TestScenarioSamples:
    def test_default_subset_matches_paper_dataset(self, dataset):
        from repro.roofline.hardware import default_gpu

        scen = scenario_samples(default_gpu())
        assert list(scen) == list(dataset.balanced)

    def test_memoized_per_gpu_and_subset(self):
        gpu = get_gpu("V100")
        a = scenario_samples(gpu, uids=GOLDEN_UIDS)
        b = scenario_samples(gpu, uids=GOLDEN_UIDS)
        assert a is b


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def small_matrix(self, dataset):
        models = [get_model("o3-mini-high"), get_model("gpt-4o-mini")]
        gpus = [get_gpu("V100"), get_gpu("H100")]
        return run_matrix(models, gpus, rqs=("rq2",), limit=24, jobs=2)

    def test_grid_shape(self, small_matrix):
        assert len(small_matrix.cells) == 2 * 2 * 1  # models × gpus × rqs
        assert small_matrix.num_kernels == 24
        for cell in small_matrix.cells:
            assert len(cell.run.records) == 24
            assert 0.0 <= cell.accuracy <= 100.0

    def test_cell_lookup(self, small_matrix):
        cell = small_matrix.cell("o3-mini-high", "NVIDIA Tesla V100", "rq2")
        assert cell.model_name == "o3-mini-high"
        with pytest.raises(KeyError):
            small_matrix.cell("o3-mini-high", "NVIDIA Tesla V100", "rq9")

    def test_same_kernels_on_every_device(self, small_matrix):
        ids = {
            tuple(r.item_id for r in cell.run.records)
            for cell in small_matrix.cells
        }
        assert len(ids) == 1

    def test_flip_tracking_totals(self, small_matrix):
        tracking = small_matrix.flip_tracking()
        assert len(tracking) == len(small_matrix.model_names) * len(
            small_matrix.rqs
        )
        for t in tracking:
            assert 0 <= t.tracked <= t.total == len(small_matrix.flips)
            assert 0.0 <= t.rate <= 1.0

    def test_render_mentions_every_axis(self, small_matrix):
        text = small_matrix.render()
        assert "V100" in text and "H100" in text
        assert "o3-mini-high" in text and "gpt-4o-mini" in text
        assert "Hardware matrix" in text

    def test_determinism_across_plans(self, small_matrix, dataset):
        models = [get_model("o3-mini-high"), get_model("gpt-4o-mini")]
        gpus = [get_gpu("V100"), get_gpu("H100")]
        again = run_matrix(models, gpus, rqs=("rq2",), limit=24, jobs=5)
        assert again == small_matrix

    def test_digest_identical_with_and_without_profile_store(
        self, dataset, tmp_path, fresh_memos
    ):
        """Acceptance: reports are byte-identical whether kernel profiles
        come from a fresh walk, a cold store pass, or a warm store."""
        from repro import runtime
        from repro.gpusim.store import ProfileStore

        models = [get_model("o3-mini-high")]
        gpus = [get_gpu("V100"), get_gpu("2080")]

        def fresh_run():
            fresh_memos()
            return run_matrix(models, gpus, rqs=("rq2",), limit=8)

        try:
            runtime.install(profile_store=None)
            bare = fresh_run()
            runtime.install(profile_store=ProfileStore(tmp_path / "ps"))
            cold = fresh_run()
            warm = fresh_run()
        finally:
            runtime.reset()
        assert cold == bare and warm == bare
        assert cold.digest() == bare.digest()
        assert warm.digest() == bare.digest()

    def test_matrix_on_paper_gpu_matches_rq2(self, dataset):
        from repro.eval.rq23 import run_rq2
        from repro.roofline.hardware import default_gpu

        model = get_model("gemini-2.0-flash-001")
        m = run_matrix([model], [default_gpu()], rqs=("rq2",), limit=30)
        r = run_rq2(model, list(dataset.balanced[:30]))
        assert m.cells[0].run.records == r.run.records

    def test_unknown_rq_rejected(self):
        with pytest.raises(ValueError):
            run_matrix([get_model("o1")], [get_gpu("V100")], rqs=("rq1",))
        assert MATRIX_RQS == ("rq2", "rq3")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            grid_uids(-330)
        with pytest.raises(ValueError, match="limit must be >= 0"):
            run_matrix([get_model("o1")], [get_gpu("V100")], limit=-335)


class TestGpuSelection:
    def test_resolve_all(self):
        assert resolve_gpus("all") == list(GPU_DATABASE.values())

    def test_resolve_named_subset_keeps_order(self):
        gpus = resolve_gpus("h100, v100")
        assert [g.name for g in gpus] == [
            "NVIDIA H100 PCIe",
            "NVIDIA Tesla V100",
        ]

    def test_resolve_deduplicates(self):
        assert len(resolve_gpus("v100,V100")) == 1

    def test_resolve_rejects_junk(self):
        with pytest.raises(ValueError):
            resolve_gpus(" , ")
        with pytest.raises(KeyError):
            resolve_gpus("tpu-v5")

    def test_short_names(self):
        assert short_gpu_name("NVIDIA GeForce RTX 3080") == "RTX 3080"
        assert short_gpu_name("AMD Instinct MI100") == "MI100"
        assert short_gpu_name("NVIDIA H100 PCIe") == "H100"
