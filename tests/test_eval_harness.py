"""Tests for the experiment runners, figures, and Table 1 plumbing."""

import pytest

from repro.eval import (
    Comparison,
    build_row,
    figure1_data,
    figure2_data,
    ordering_agreement,
    render_comparisons,
    run_hyperparam_study,
    run_queries,
    run_rq1,
    run_rq2,
    run_rq3,
)
from repro.llm import get_model
from repro.prompts import FEW_SHOT_2, ZERO_SHOT
from repro.types import Boundedness, OpClass


class TestRunner:
    def test_run_queries(self, balanced_samples):
        from repro.prompts import build_classify_prompt

        model = get_model("o3-mini-high")
        items = [
            (s.uid, build_classify_prompt(s).text, s.label)
            for s in balanced_samples[:12]
        ]
        result = run_queries(model, items)
        assert len(result.records) == 12
        assert result.usage["requests"] == 12
        assert 0 <= result.accuracy <= 100

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            run_queries(get_model("o1"), [])

    def test_unparseable_scored_wrong(self):
        model = get_model("gpt-4o-mini")
        # off-task prompt answers "Bandwidth"; truth Compute counts it wrong,
        # truth Bandwidth counts it right
        r = run_queries(model, [("x", "not a real prompt", Boundedness.COMPUTE)])
        assert r.accuracy == 0.0


class TestRq1Runner:
    def test_small_run(self):
        r = run_rq1(get_model("gpt-4o-mini"), num_rooflines=20, shot_counts=(2,))
        assert set(r.accuracy_by_shots) == {2}
        assert 70 <= r.best_accuracy <= 100
        assert r.best_accuracy_cot >= r.best_accuracy - 5


class TestRq23Runners:
    def test_subset_run(self, balanced_samples):
        model = get_model("o3-mini")
        r2 = run_rq2(model, balanced_samples[:30])
        r3 = run_rq3(model, balanced_samples[:30])
        assert r2.metrics.n == 30
        assert r2.variant is ZERO_SHOT and r3.variant is FEW_SHOT_2


class TestHyperparams:
    def test_study_shape(self, balanced_samples):
        study = run_hyperparam_study(
            get_model("gpt-4o-mini"), balanced_samples, max_samples=40
        )
        assert len(study.table) == 4
        assert all(sum(row) == 40 for row in study.table)

    def test_insignificance_reproduced(self, balanced_samples):
        study = run_hyperparam_study(
            get_model("gpt-4o-2024-11-20"), balanced_samples, max_samples=80
        )
        assert not study.significant

    def test_reasoning_model_rejected(self):
        with pytest.raises(ValueError):
            run_hyperparam_study(get_model("o1"))


class TestFigures:
    def test_figure1_shape(self, dataset):
        fig = figure1_data(list(dataset.profiled))
        assert len(fig.points[OpClass.INT]) == 749  # every kernel does int work
        assert len(fig.points[OpClass.SP]) > 200
        assert len(fig.points[OpClass.DP]) > 100

    def test_figure1_majority_sp_int_bb(self, dataset):
        """Paper §2.1: 'the majority of the SP-FLOP and INT samples are BB
        on this hardware'."""
        fig = figure1_data(list(dataset.profiled))
        assert fig.bb_fraction(OpClass.SP) > 0.5
        assert fig.bb_fraction(OpClass.INT) > 0.5

    def test_figure1_points_under_roofline_ceiling(self, dataset):
        fig = figure1_data(list(dataset.profiled))
        rooflines = fig.gpu.rooflines()
        for oc in OpClass:
            for ai, perf in fig.points[oc]:
                assert perf <= rooflines[oc].attainable(ai) * 1.05

    def test_figure1_ascii_renders(self, dataset):
        fig = figure1_data(list(dataset.profiled)[:100])
        text = fig.render_ascii()
        assert "roofline" in text
        assert len(text.split("\n")) > 20

    def test_figure2_groups(self, dataset):
        fig = figure2_data(dataset)
        assert len(fig.groups) == 8  # 2 splits x 2 languages x 2 classes
        stats = fig.box_stats()
        assert all(s.maximum <= 8000 for s in stats.values())  # pruned

    def test_figure2_omp_shorter_than_cuda(self, dataset):
        """Paper Figure 2: 'OMP codes are, on average, able to use less
        tokens than the CUDA codes'."""
        fig = figure2_data(dataset)
        stats = fig.box_stats()
        cuda = [s.median for k, s in stats.items() if "CUDA" in k]
        omp = [s.median for k, s in stats.items() if "OMP" in k]
        assert sum(omp) / len(omp) < sum(cuda) / len(cuda)

    def test_figure2_ascii_renders(self, dataset):
        text = figure2_data(dataset).render_ascii()
        assert "train/CUDA/BB" in text


class TestTable1Plumbing:
    def test_build_row_small(self, balanced_samples):
        row = build_row(
            get_model("gpt-4o-mini"), balanced_samples[:20], num_rooflines=10
        )
        cells = row.cells()
        assert cells[0] == "gpt-4o-mini"
        assert cells[3] is not None  # RQ1 reported

    def test_unreported_rq1_is_none(self, balanced_samples):
        row = build_row(get_model("o1"), balanced_samples[:20], num_rooflines=5)
        assert row.rq1 is None
        assert row.cells()[3] is None


class TestReportHelpers:
    def test_render_comparisons(self):
        text = render_comparisons(
            "T", [Comparison("E1", "acc", 64.1, 63.8), Comparison("E2", "f1", None, 50.0)]
        )
        assert "E1" in text and "-" in text

    def test_ordering_agreement(self):
        assert ordering_agreement([3, 2, 1], [30, 20, 10]) == 1.0
        assert ordering_agreement([3, 2, 1], [10, 20, 30]) == 0.0
        assert ordering_agreement([1, 1], [5, 9]) == 1.0  # all ties skipped
