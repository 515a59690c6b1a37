"""Statistics helpers: significance tests, effect sizes, bootstrap CIs,
box-plot summaries.

The chi-squared machinery reproduces the paper's Section 3.2 hyperparameter
study (temperature/top_p have no statistically significant effect on model
predictions); the Wilcoxon signed-rank test, Vargha-Delaney A12 effect
size, and BCa/percentile bootstrap back :mod:`repro.analysis.stats`'
significance suite over the hardware matrix. Everything is implemented from
first principles on top of numpy and ``math`` special functions so the core
library only hard-depends on numpy; results are cross-validated against
scipy in the test suite (which is the only place scipy is imported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# chi-squared survival function via the regularized incomplete gamma function
# ---------------------------------------------------------------------------

def _gammainc_lower_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by power series (x < s+1)."""
    if x <= 0.0:
        return 0.0
    term = 1.0 / s
    total = term
    k = s
    for _ in range(1000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    log_prefix = s * math.log(x) - x - math.lgamma(s)
    return math.exp(log_prefix) * total


def _gammainc_upper_contfrac(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) by continued fraction (x >= s+1)."""
    # Lentz's algorithm for the continued fraction representation.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    log_prefix = s * math.log(x) - x - math.lgamma(s)
    return math.exp(log_prefix) * h


def chi2_sf(x: float, df: int) -> float:
    """Survival function (1 - CDF) of the chi-squared distribution.

    ``P(X >= x)`` for ``X ~ chi2(df)``. Accurate to ~1e-12 against scipy.
    """
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 1.0
    s = df / 2.0
    xx = x / 2.0
    if xx < s + 1.0:
        return 1.0 - _gammainc_lower_series(s, xx)
    return _gammainc_upper_contfrac(s, xx)


@dataclass(frozen=True)
class Chi2Result:
    """Outcome of a chi-squared independence test on a contingency table."""

    statistic: float
    dof: int
    p_value: float
    expected: np.ndarray

    @property
    def significant_at_05(self) -> bool:
        return self.p_value < 0.05


def chi_squared_independence(table: Sequence[Sequence[float]]) -> Chi2Result:
    """Pearson chi-squared test of independence for an R x C contingency table.

    Raises ``ValueError`` for degenerate tables (any zero row/column margin,
    or fewer than 2 rows/columns) because the test is undefined there.
    """
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise ValueError("contingency table must be at least 2x2")
    if (obs < 0).any():
        raise ValueError("contingency table entries must be non-negative")
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    total = obs.sum()
    if total <= 0 or (row == 0).any() or (col == 0).any():
        raise ValueError("contingency table has a zero margin")
    expected = row @ col / total
    stat = float(((obs - expected) ** 2 / expected).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return Chi2Result(statistic=stat, dof=dof, p_value=chi2_sf(stat, dof), expected=expected)


# ---------------------------------------------------------------------------
# box-plot / summary statistics (Figure 2 support)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus IQR whiskers, as drawn in Figure 2."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def five_number_summary(values: Sequence[float]) -> BoxStats:
    """Compute Tukey box-plot statistics (1.5 * IQR whiskers)."""
    arr = np.asarray(sorted(float(v) for v in values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q1, med, q3 = (float(np.percentile(arr, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    whisker_low = float(inside.min()) if inside.size else q1
    whisker_high = float(inside.max()) if inside.size else q3
    outliers = tuple(float(v) for v in arr[(arr < lo_fence) | (arr > hi_fence)])
    return BoxStats(
        minimum=float(arr.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(arr.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        n=int(arr.size),
    )


def describe(values: Sequence[float]) -> dict[str, float]:
    """Mean/std/min/max/median summary used in reports."""
    arr = np.asarray([float(v) for v in values], dtype=float)
    if arr.size == 0:
        raise ValueError("cannot describe an empty sample")
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
    }


# ---------------------------------------------------------------------------
# standard-normal distribution functions
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard-normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """Standard-normal survival function ``P(Z >= x)``."""
    return 0.5 * math.erfc(x / _SQRT2)


# Acklam's rational approximation to the normal quantile: three regimes
# (lower tail / central / upper tail) accurate to ~1.15e-9, polished to
# full double precision with one Halley step against the erfc-exact CDF.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_SPLIT = 0.02425


def norm_ppf(p: float) -> float:
    """Standard-normal quantile function (inverse CDF).

    ``p`` outside ``(0, 1)`` maps to ``±inf`` at the boundaries (the BCa
    adjustment can push percentiles there) and raises beyond them.
    """
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - _ACKLAM_SPLIT:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    # One Halley refinement step against the erfc-exact distribution
    # functions. Above the median the CDF saturates toward 1 and
    # ``cdf(x) - p`` cancels catastrophically, so refine the residual in
    # survival-function space there (``1 - p`` is exact for p >= 0.5).
    if p > 0.5:
        e = (1.0 - p) - norm_sf(x)
    else:
        e = norm_cdf(x) - p
    u = e * _SQRT_2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# rank utilities
# ---------------------------------------------------------------------------

def rankdata_average(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("rankdata_average expects a 1-d sample")
    order = np.argsort(arr, kind="stable")
    sorted_arr = arr[order]
    # Group boundaries: True where a new distinct value starts.
    boundaries = np.empty(arr.size, dtype=bool)
    if arr.size:
        boundaries[0] = True
        boundaries[1:] = sorted_arr[1:] != sorted_arr[:-1]
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], arr.size)
    # Average of 1-based ranks [start+1, end] is (start + end + 1) / 2.
    group_rank = (starts + ends + 1) / 2.0
    group_of = np.cumsum(boundaries) - 1
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = group_rank[group_of]
    return ranks


# ---------------------------------------------------------------------------
# paired Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a two-sided paired Wilcoxon signed-rank test.

    ``statistic`` is ``min(w_plus, w_minus)`` (the classic T). ``n`` counts
    the non-zero differences actually ranked; ``zeros`` the discarded
    zero differences. ``method`` records which null was used (``exact`` or
    ``approx``); ``z`` is the normal-approximation score (``0.0`` under the
    exact null).
    """

    statistic: float
    w_plus: float
    w_minus: float
    n: int
    zeros: int
    p_value: float
    method: str
    z: float

    @property
    def significant_at_05(self) -> bool:
        return self.p_value < 0.05


def _signed_rank_counts(n: int) -> np.ndarray:
    """``c[k]`` = number of subsets of ``{1..n}`` summing to ``k`` — the
    (unnormalised) exact null distribution of W+ over ``2**n`` sign flips."""
    total = n * (n + 1) // 2
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for i in range(1, n + 1):
        counts[i:] = counts[i:] + counts[: total + 1 - i]
    return counts


def wilcoxon_signed_rank(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray | None = None,
    *,
    method: str = "auto",
) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test (scipy conventions).

    ``x`` is either the paired differences (``y=None``) or the first
    sample, paired element-wise with ``y``. Zero differences are discarded
    (scipy's ``zero_method="wilcox"``); if *every* difference is zero the
    samples are identical and the degenerate result ``p=1`` is returned
    rather than raising. ``method="auto"`` uses the exact null when
    ``n <= 50`` with no ties or zeros, the tie-corrected normal
    approximation otherwise; ``"exact"``/``"approx"`` force one (exact
    with ties raises — the exact null assumes distinct ranks).
    """
    if method not in ("auto", "exact", "approx"):
        raise ValueError(f"unknown method {method!r}")
    d = np.asarray(x, dtype=float)
    if y is not None:
        yy = np.asarray(y, dtype=float)
        if d.shape != yy.shape:
            raise ValueError("paired samples must have equal length")
        d = d - yy
    if d.ndim != 1 or d.size == 0:
        raise ValueError("need a non-empty 1-d sample of differences")

    zeros = int((d == 0).sum())
    d = d[d != 0]
    n = int(d.size)
    if n == 0:
        # All pairs identical: no evidence of any shift.
        return WilcoxonResult(
            statistic=0.0, w_plus=0.0, w_minus=0.0, n=0, zeros=zeros,
            p_value=1.0, method="degenerate", z=0.0,
        )

    abs_ranks = rankdata_average(np.abs(d))
    w_plus = float(abs_ranks[d > 0].sum())
    w_minus = float(abs_ranks[d < 0].sum())
    statistic = min(w_plus, w_minus)

    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    has_ties = bool((tie_counts > 1).any())
    if method == "exact" and has_ties:
        raise ValueError(
            "exact Wilcoxon null is undefined with tied |differences|; "
            "use method='approx'"
        )
    use_exact = method == "exact" or (
        method == "auto" and n <= 50 and not has_ties and zeros == 0
    )

    if use_exact:
        counts = _signed_rank_counts(n)
        cdf = counts[: int(statistic) + 1].sum() / counts.sum()
        p = min(1.0, 2.0 * cdf)
        return WilcoxonResult(
            statistic=statistic, w_plus=w_plus, w_minus=w_minus, n=n,
            zeros=zeros, p_value=p, method="exact", z=0.0,
        )

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= float((tie_counts**3 - tie_counts).sum()) / 48.0
    if var <= 0:
        # Every |difference| tied in one group of even size can zero the
        # variance; there is no information left to test.
        return WilcoxonResult(
            statistic=statistic, w_plus=w_plus, w_minus=w_minus, n=n,
            zeros=zeros, p_value=1.0, method="degenerate", z=0.0,
        )
    z = (w_plus - mean) / math.sqrt(var)
    p = min(1.0, 2.0 * norm_sf(abs(z)))
    return WilcoxonResult(
        statistic=statistic, w_plus=w_plus, w_minus=w_minus, n=n,
        zeros=zeros, p_value=p, method="approx", z=z,
    )


# ---------------------------------------------------------------------------
# Vargha-Delaney A12 effect size
# ---------------------------------------------------------------------------

def vargha_delaney_a12(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Vargha-Delaney A12: ``P(X > Y) + 0.5 P(X = Y)`` by average ranks.

    0.5 means stochastic equality; 1.0 means every ``x`` exceeds every
    ``y``. Equals the normalised Mann-Whitney U statistic ``U1 / (n m)``.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    n, m = xa.size, ya.size
    if n == 0 or m == 0:
        raise ValueError("A12 needs two non-empty samples")
    ranks = rankdata_average(np.concatenate([xa, ya]))
    r1 = float(ranks[:n].sum())
    return (r1 / n - (n + 1) / 2.0) / m


def a12_magnitude(a12: float) -> str:
    """Vargha & Delaney's qualitative magnitude of an A12 effect size."""
    dev = abs(a12 - 0.5)
    if dev < 0.06:
        return "negligible"
    if dev < 0.14:
        return "small"
    if dev < 0.21:
        return "medium"
    return "large"


# ---------------------------------------------------------------------------
# seeded bootstrap confidence intervals (percentile and BCa)
# ---------------------------------------------------------------------------

def sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` (its default ``"linear"`` method) of an
    ascending 1-D float array, with numpy's own arithmetic, so the two agree
    to the bit.

    It reads the two order statistics directly: ``np.quantile`` partitions
    through ``np.unique``, whose first call imports ``numpy.ma`` (about
    20 ms, half of a cold ``matrix --stats`` pass).
    """
    last = ordered.size - 1
    index = last * q
    if index >= last:
        # np.quantile reads both ends at index -1, so its weight is
        # index + 1: that weight fixes the sign of a zero it returns.
        lo = hi = last
        t = index + 1
    else:
        lo = math.floor(index)
        hi = lo + 1
        t = index - lo
    a, b = float(ordered[lo]), float(ordered[hi])
    diff = b - a
    value = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    # np.quantile's answer for a sample holding NaN (sorted last) is NaN.
    return math.nan if math.isnan(ordered[-1]) else value


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap confidence interval around a point estimate."""

    estimate: float
    low: float
    high: float
    confidence: float
    method: str
    n_resamples: int

    @property
    def width(self) -> float:
        return self.high - self.low


def _jackknife_acceleration(theta_jack: np.ndarray) -> float:
    """BCa acceleration constant from leave-one-out estimates."""
    u = theta_jack.mean() - theta_jack
    denom = float((u**2).sum()) ** 1.5
    if denom == 0.0:
        return 0.0
    return float((u**3).sum()) / (6.0 * denom)


def bootstrap_ci(
    data: Sequence | np.ndarray,
    statistic: Callable[[np.ndarray], float | np.ndarray],
    *,
    rng,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    method: str = "bca",
    vectorized: bool = False,
) -> BootstrapCI:
    """Bootstrap CI for ``statistic(data)``, resampling rows of ``data``.

    ``rng`` is a :class:`repro.util.rng.RngStream` (or anything exposing
    its ``integer_matrix``), which is the *only* randomness source — the
    same stream key and data always yield the same interval.
    ``method="bca"`` applies the bias-corrected-and-accelerated adjustment
    (median bias from the resample distribution, acceleration from a
    jackknife); ``"percentile"`` takes the raw resample quantiles. With
    ``vectorized=True`` the statistic receives a stacked array of
    resamples (shape ``(B,) + data.shape``) and must return ``B`` values —
    the fast path for the matrix-sized inputs in
    :mod:`repro.analysis.stats`.
    """
    if method not in ("bca", "percentile"):
        raise ValueError(f"unknown bootstrap method {method!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    arr = np.asarray(data)
    n = arr.shape[0] if arr.ndim else 0
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")

    def evaluate(index_rows: np.ndarray) -> np.ndarray:
        if vectorized:
            return np.asarray(statistic(arr[index_rows]), dtype=float)
        return np.asarray(
            [statistic(arr[rows]) for rows in index_rows], dtype=float
        )

    theta_hat = float(evaluate(np.arange(n)[None, :])[0])
    idx = rng.integer_matrix((n_resamples, n), 0, n)
    theta_b = evaluate(idx)
    if theta_b.shape != (n_resamples,):
        raise ValueError(
            f"statistic returned shape {theta_b.shape}, "
            f"expected ({n_resamples},)"
        )

    alpha = (1.0 - confidence) / 2.0
    if method == "percentile":
        lo_q, hi_q = alpha, 1.0 - alpha
    else:
        # Bias correction: where the point estimate sits in the resample
        # distribution (mean of the strict and weak percentile, matching
        # scipy's percentileofscore(kind="mean")).
        frac = (
            float((theta_b < theta_hat).sum())
            + float((theta_b <= theta_hat).sum())
        ) / (2.0 * n_resamples)
        if frac <= 0.0 or frac >= 1.0:
            # The estimate lies outside the whole resample cloud; the
            # adjusted percentiles saturate at the matching extreme.
            lo_q = hi_q = 0.0 if frac <= 0.0 else 1.0
        else:
            z0 = norm_ppf(frac)
            jack_rows = np.arange(n)[None, :].repeat(n, axis=0)
            jack_rows = jack_rows[~np.eye(n, dtype=bool)].reshape(n, n - 1)
            accel = (
                _jackknife_acceleration(evaluate(jack_rows)) if n > 1 else 0.0
            )

            def adjust(q: float) -> float:
                zq = z0 + norm_ppf(q)
                denom = 1.0 - accel * zq
                if denom <= 0.0:
                    return 1.0 if zq > 0 else 0.0
                return norm_cdf(z0 + zq / denom)

            lo_q, hi_q = adjust(alpha), adjust(1.0 - alpha)

    ordered = np.sort(theta_b)
    low = sorted_quantile(ordered, lo_q)
    high = sorted_quantile(ordered, hi_q)
    return BootstrapCI(
        estimate=theta_hat,
        low=min(low, high),
        high=max(low, high),
        confidence=confidence,
        method=method,
        n_resamples=n_resamples,
    )


# ---------------------------------------------------------------------------
# multiple-comparison correction
# ---------------------------------------------------------------------------

def holm_bonferroni(p_values: Sequence[float]) -> tuple[float, ...]:
    """Holm's step-down adjusted p-values (uniformly more powerful than
    Bonferroni, controls the family-wise error rate at the same level).

    Sorted ascending, the k-th smallest p is scaled by ``(m - k)`` and a
    running maximum enforces monotonicity; results are capped at 1 and
    returned in the input order.
    """
    m = len(p_values)
    if m == 0:
        return ()
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * p_values[i])
        adjusted[i] = min(1.0, running)
    return tuple(adjusted)
