"""Statistical significance suite over the hardware-matrix grid.

The paper reports accuracy differences (zero-shot vs few-shot, model vs
model) without significance testing. The matrix sweep produces exactly the
paired per-kernel observations needed to fix that: every cell of the
(model × GPU × regime) grid scores the *same kernels in the same order*,
so any two cells — and any two axis values, pooling cells over the other
axes — form a paired sample of 0/1 outcomes. This module turns a
:class:`~repro.eval.matrix.MatrixResult` into a :class:`StatsReport`:

* **Pairwise comparisons** along each axis (model, GPU, regime): paired
  Wilcoxon signed-rank test (:func:`repro.util.stats.wilcoxon_signed_rank`
  — 0/1 outcomes always carry ties and zero differences, so the
  tie-corrected normal approximation applies), Vargha-Delaney A12 effect
  size with its qualitative magnitude, and Holm-corrected p-values within
  each axis family.
* **Bootstrap confidence intervals** on accuracy and macro-F1 per cell,
  BCa by default, every resample drawn from a
  :class:`~repro.util.rng.RngStream` keyed on (seed, cell, metric) — the
  same seed always yields the same report digest, whatever the order the
  cells were computed in.

:class:`StatsReport` speaks the :class:`~repro.eval.report.Reportable`
protocol (``digest()`` / ``render()`` / ``to_json()``), so the CLI's
``matrix --stats``, ``stats``, and ``export`` paths all consume it the
same way they consume a run or a matrix.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.defaults import DEFAULT_RESAMPLES, DEFAULT_STATS_SEED
from repro.eval.matrix import MatrixResult
from repro.util.rng import RngStream
from repro.util.stats import (
    BootstrapCI,
    WilcoxonResult,
    a12_magnitude,
    bootstrap_ci,
    holm_bonferroni,
    vargha_delaney_a12,
    wilcoxon_signed_rank,
)
from repro.util.tables import format_table
from repro.util.textplot import ascii_intervals

#: The grid axes compared pairwise, in report order.
AXES = ("model", "gpu", "regime")

#: Metrics bootstrapped per cell.
CI_METRICS = ("accuracy", "macro_f1")


@dataclass(frozen=True)
class PairwiseComparison:
    """One paired A-vs-B test along a grid axis.

    ``n`` counts the paired per-kernel observations pooled over the other
    two axes; ``mean_a``/``mean_b`` are the pooled accuracies ×100.
    ``p_holm`` is the Holm-adjusted p-value within this axis's family of
    comparisons.
    """

    axis: str  # "model" | "gpu" | "regime"
    a: str
    b: str
    n: int
    mean_a: float
    mean_b: float
    wilcoxon: WilcoxonResult
    a12: float
    p_holm: float

    @property
    def delta(self) -> float:
        return self.mean_a - self.mean_b

    @property
    def magnitude(self) -> str:
        return a12_magnitude(self.a12)

    @property
    def significant_at_05(self) -> bool:
        return self.p_holm < 0.05


@dataclass(frozen=True)
class CellInterval:
    """One bootstrap CI: a (model, GPU, regime) cell × metric."""

    model_name: str
    gpu_name: str
    regime: str
    metric: str  # "accuracy" | "macro_f1"
    ci: BootstrapCI


def _outcome_matrix(run) -> np.ndarray:
    """Per-kernel (truth, prediction) class indices for one cell's run.

    Row order is the grid's kernel order (shared by every cell).
    Unparseable predictions score as the wrong class, exactly as
    :meth:`repro.eval.runner.RunResult.metrics` does; classes are encoded
    Compute=1 / Bandwidth=0.
    """
    rows = np.empty((len(run.records), 2), dtype=np.int8)
    for i, r in enumerate(run.records):
        pred = r.prediction if r.prediction is not None else r.truth.other
        rows[i, 0] = 1 if r.truth.word == "Compute" else 0
        rows[i, 1] = 1 if pred.word == "Compute" else 0
    return rows


def _accuracy_stat(sample: np.ndarray) -> np.ndarray:
    """Accuracy ×100 over the kernel axis of ``(..., n, 2)`` samples."""
    return 100.0 * (sample[..., 0] == sample[..., 1]).mean(axis=-1)


def _macro_f1_stat(sample: np.ndarray) -> np.ndarray:
    """Macro-F1 ×100 over the kernel axis, replicating
    :func:`repro.eval.metrics.macro_f1` (absent-and-never-predicted class
    scores F1 = 1) vectorized over leading resample axes."""
    t, p = sample[..., 0], sample[..., 1]
    tp = ((t == 1) & (p == 1)).sum(axis=-1).astype(float)
    tn = ((t == 0) & (p == 0)).sum(axis=-1).astype(float)
    fp = ((t == 0) & (p == 1)).sum(axis=-1).astype(float)
    fn = ((t == 1) & (p == 0)).sum(axis=-1).astype(float)
    denom_cb = 2.0 * tp + fp + fn
    denom_bb = 2.0 * tn + fn + fp
    with np.errstate(divide="ignore", invalid="ignore"):
        f1_cb = np.where(denom_cb == 0.0, 1.0, 2.0 * tp / denom_cb)
        f1_bb = np.where(denom_bb == 0.0, 1.0, 2.0 * tn / denom_bb)
    return 100.0 * (f1_cb + f1_bb) / 2.0

_CI_STATISTICS = {"accuracy": _accuracy_stat, "macro_f1": _macro_f1_stat}


@dataclass(frozen=True)
class StatsReport:
    """The matrix grid's significance report (a ``Reportable``)."""

    matrix_digest: str
    seed: int
    n_resamples: int
    confidence: float
    ci_method: str  # "bca" | "percentile"
    model_names: tuple[str, ...]
    gpu_names: tuple[str, ...]
    regimes: tuple[str, ...]
    num_kernels: int
    comparisons: tuple[PairwiseComparison, ...]
    intervals: tuple[CellInterval, ...]

    def digest(self) -> str:
        """SHA-256 over the report's value form (stable per seed/grid)."""
        payload = repr((
            self.matrix_digest,
            self.seed,
            self.n_resamples,
            self.confidence,
            self.ci_method,
            self.model_names,
            self.gpu_names,
            self.regimes,
            self.num_kernels,
            self.comparisons,
            self.intervals,
        ))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def axis_comparisons(self, axis: str) -> tuple[PairwiseComparison, ...]:
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}; choose from {AXES}")
        return tuple(c for c in self.comparisons if c.axis == axis)

    def interval(
        self, model_name: str, gpu_name: str, regime: str, metric: str
    ) -> CellInterval:
        for iv in self.intervals:
            if (iv.model_name, iv.gpu_name, iv.regime, iv.metric) == (
                model_name, gpu_name, regime, metric,
            ):
                return iv
        raise KeyError((model_name, gpu_name, regime, metric))

    # -- rendering -----------------------------------------------------------
    def _render_axis_table(self, axis: str) -> str | None:
        comps = self.axis_comparisons(axis)
        if not comps:
            return None
        rows = []
        for c in comps:
            rows.append([
                c.a,
                c.b,
                c.n,
                c.mean_a,
                c.mean_b,
                c.delta,
                c.wilcoxon.statistic,
                f"{c.wilcoxon.p_value:.4g}",
                f"{c.p_holm:.4g}",
                f"{c.a12:.3f}",
                c.magnitude,
                "*" if c.significant_at_05 else "",
            ])
        return format_table(
            ["A", "B", "n", "Acc A", "Acc B", "Delta", "W",
             "p", "p(Holm)", "A12", "Magnitude", "Sig"],
            rows,
            title=(
                f"Pairwise {axis} comparisons — paired Wilcoxon over "
                "per-kernel outcomes, Holm-corrected"
            ),
        )

    def _render_interval_table(self) -> str:
        rows = [
            [
                iv.model_name,
                iv.gpu_name,
                iv.regime,
                iv.metric,
                iv.ci.estimate,
                iv.ci.low,
                iv.ci.high,
            ]
            for iv in self.intervals
        ]
        pct = 100.0 * self.confidence
        return format_table(
            ["Model", "GPU", "Regime", "Metric", "Estimate", "Low", "High"],
            rows,
            title=(
                f"Bootstrap {pct:g}% CIs — {self.ci_method}, "
                f"{self.n_resamples} resamples, seed {self.seed}"
            ),
        )

    def _render_interval_bars(self) -> list[str]:
        blocks = []
        for regime in self.regimes:
            groups = {}
            for iv in self.intervals:
                if iv.regime != regime or iv.metric != "accuracy":
                    continue
                label = f"{iv.model_name}/{iv.gpu_name}"
                groups[label] = (iv.ci.low, iv.ci.estimate, iv.ci.high)
            if groups:
                blocks.append(ascii_intervals(
                    groups,
                    title=f"Accuracy CIs — regime {regime}",
                    value_label="accuracy %",
                ))
        return blocks

    def render(self) -> str:
        parts = [
            (
                f"Statistical report — {len(self.model_names)} models × "
                f"{len(self.gpu_names)} GPUs × {len(self.regimes)} regimes "
                f"over {self.num_kernels} kernels\n"
                f"matrix {self.matrix_digest[:12]}…  seed {self.seed}  "
                f"{self.ci_method} bootstrap × {self.n_resamples}  "
                f"confidence {self.confidence:g}"
            )
        ]
        for axis in AXES:
            table = self._render_axis_table(axis)
            if table:
                parts.append(table)
        parts.append(self._render_interval_table())
        parts.extend(self._render_interval_bars())
        return "\n\n".join(parts)

    def to_json(self) -> dict:
        return {
            "type": "stats",
            "digest": self.digest(),
            "matrix_digest": self.matrix_digest,
            "seed": self.seed,
            "n_resamples": self.n_resamples,
            "confidence": self.confidence,
            "ci_method": self.ci_method,
            "models": list(self.model_names),
            "gpus": list(self.gpu_names),
            "regimes": list(self.regimes),
            "num_kernels": self.num_kernels,
            "comparisons": [
                {
                    "axis": c.axis,
                    "a": c.a,
                    "b": c.b,
                    "n": c.n,
                    "mean_a": c.mean_a,
                    "mean_b": c.mean_b,
                    "delta": c.delta,
                    "wilcoxon_statistic": c.wilcoxon.statistic,
                    "wilcoxon_method": c.wilcoxon.method,
                    "p_value": c.wilcoxon.p_value,
                    "p_holm": c.p_holm,
                    "a12": c.a12,
                    "magnitude": c.magnitude,
                    "significant_at_05": c.significant_at_05,
                }
                for c in self.comparisons
            ],
            "intervals": [
                {
                    "model": iv.model_name,
                    "gpu": iv.gpu_name,
                    "regime": iv.regime,
                    "metric": iv.metric,
                    "estimate": iv.ci.estimate,
                    "low": iv.ci.low,
                    "high": iv.ci.high,
                }
                for iv in self.intervals
            ],
        }


def _pooled_outcomes(
    matrix: MatrixResult, axis: str, value: str
) -> np.ndarray:
    """0/1 correctness pooled over the other two axes, in a deterministic
    (gpu, model, regime) cell order shared by every value of ``axis`` —
    which is what makes two pooled vectors positionally paired."""
    chunks = []
    for gpu in matrix.gpu_names:
        for model in matrix.model_names:
            for regime in matrix.rqs:
                cell_key = {"model": model, "gpu": gpu, "regime": regime}
                if cell_key[axis] != value:
                    continue
                rows = _outcome_matrix(matrix.cell(model, gpu, regime).run)
                chunks.append((rows[:, 0] == rows[:, 1]).astype(np.int8))
    return np.concatenate(chunks)


def build_stats_report(
    matrix: MatrixResult,
    *,
    seed: int = DEFAULT_STATS_SEED,
    n_resamples: int = DEFAULT_RESAMPLES,
    confidence: float = 0.95,
    ci_method: str = "bca",
) -> StatsReport:
    """Run the full significance suite over one matrix result.

    Pure computation on the matrix's records — no completions, no
    profiling, no I/O — so running it over a warm-cache sweep adds only
    the stats pass itself (``benchmarks/bench_stats.py`` bounds it).
    """
    axis_values = {
        "model": matrix.model_names,
        "gpu": matrix.gpu_names,
        "regime": matrix.rqs,
    }

    comparisons: list[PairwiseComparison] = []
    for axis in AXES:
        raw: list[PairwiseComparison] = []
        for a, b in combinations(axis_values[axis], 2):
            xa = _pooled_outcomes(matrix, axis, a)
            xb = _pooled_outcomes(matrix, axis, b)
            raw.append(
                PairwiseComparison(
                    axis=axis,
                    a=a,
                    b=b,
                    n=int(xa.size),
                    mean_a=100.0 * float(xa.mean()),
                    mean_b=100.0 * float(xb.mean()),
                    wilcoxon=wilcoxon_signed_rank(
                        xa.astype(float), xb.astype(float)
                    ),
                    a12=vargha_delaney_a12(xa, xb),
                    p_holm=0.0,  # placeholder until the family is complete
                )
            )
        adjusted = holm_bonferroni([c.wilcoxon.p_value for c in raw])
        comparisons.extend(
            dataclasses.replace(c, p_holm=p) for c, p in zip(raw, adjusted)
        )

    intervals: list[CellInterval] = []
    for gpu in matrix.gpu_names:
        for model in matrix.model_names:
            for regime in matrix.rqs:
                rows = _outcome_matrix(matrix.cell(model, gpu, regime).run)
                for metric in CI_METRICS:
                    ci = bootstrap_ci(
                        rows,
                        _CI_STATISTICS[metric],
                        rng=RngStream(
                            "analysis.stats", seed, "bootstrap",
                            model, gpu, regime, metric,
                        ),
                        n_resamples=n_resamples,
                        confidence=confidence,
                        method=ci_method,
                        vectorized=True,
                    )
                    intervals.append(CellInterval(
                        model_name=model, gpu_name=gpu, regime=regime,
                        metric=metric, ci=ci,
                    ))

    return StatsReport(
        matrix_digest=matrix.digest(),
        seed=seed,
        n_resamples=n_resamples,
        confidence=confidence,
        ci_method=ci_method,
        model_names=matrix.model_names,
        gpu_names=matrix.gpu_names,
        regimes=matrix.rqs,
        num_kernels=matrix.num_kernels,
        comparisons=tuple(comparisons),
        intervals=tuple(intervals),
    )
