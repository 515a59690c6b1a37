"""Tests for repro.util.stats — chi-squared machinery, box stats, and the
significance toolkit (Wilcoxon, A12, bootstrap CIs, Holm correction).

Every from-first-principles routine is cross-validated against scipy
(available in the dev environment, deliberately not a runtime dependency).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream
from repro.util.stats import (
    BoxStats,
    a12_magnitude,
    bootstrap_ci,
    chi2_sf,
    chi_squared_independence,
    describe,
    five_number_summary,
    holm_bonferroni,
    norm_cdf,
    norm_ppf,
    norm_sf,
    rankdata_average,
    sorted_quantile,
    vargha_delaney_a12,
    wilcoxon_signed_rank,
)


class TestChi2Sf:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30])
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0])
    def test_matches_scipy(self, df, x):
        ours = chi2_sf(x, df)
        ref = scipy.stats.chi2.sf(x, df)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_at_zero(self):
        assert chi2_sf(0.0, 3) == 1.0

    def test_negative_x(self):
        assert chi2_sf(-1.0, 3) == 1.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_monotone_decreasing(self):
        vals = [chi2_sf(x, 4) for x in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestChiSquaredIndependence:
    def test_matches_scipy(self):
        table = [[30, 70], [45, 55], [25, 75]]
        ours = chi_squared_independence(table)
        stat, p, dof, expected = scipy.stats.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(stat)
        assert ours.p_value == pytest.approx(p)
        assert ours.dof == dof
        assert np.allclose(ours.expected, expected)

    def test_homogeneous_table_not_significant(self):
        res = chi_squared_independence([[50, 50], [50, 50], [51, 49]])
        assert res.p_value > 0.9
        assert not res.significant_at_05

    def test_skewed_table_significant(self):
        res = chi_squared_independence([[90, 10], [10, 90]])
        assert res.significant_at_05

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            chi_squared_independence([[1, 2]])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            chi_squared_independence([[1, -2], [3, 4]])

    def test_zero_margin_raises(self):
        with pytest.raises(ValueError):
            chi_squared_independence([[0, 0], [1, 2]])


class TestFiveNumberSummary:
    def test_simple(self):
        s = five_number_summary([1, 2, 3, 4, 5])
        assert s.minimum == 1
        assert s.median == 3
        assert s.maximum == 5
        assert s.n == 5

    def test_outlier_detection(self):
        vals = list(range(1, 21)) + [1000]
        s = five_number_summary(vals)
        assert 1000 in s.outliers
        assert s.whisker_high < 1000

    def test_whiskers_within_data(self):
        vals = [3, 1, 4, 1, 5, 9, 2, 6]
        s = five_number_summary(vals)
        assert s.minimum <= s.whisker_low <= s.q1
        assert s.q3 <= s.whisker_high <= s.maximum

    def test_iqr(self):
        s = five_number_summary(list(range(101)))
        assert s.iqr == pytest.approx(50.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            five_number_summary([])

    def test_single_value(self):
        s = five_number_summary([7.0])
        assert s.minimum == s.median == s.maximum == 7.0
        assert s.outliers == ()


class TestDescribe:
    def test_fields(self):
        d = describe([1.0, 2.0, 3.0])
        assert d["n"] == 3
        assert d["mean"] == pytest.approx(2.0)
        assert d["median"] == pytest.approx(2.0)

    def test_std_single_sample(self):
        assert describe([5.0])["std"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            describe([])


class TestNormalDistribution:
    @pytest.mark.parametrize(
        "x", [-8.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 8.0]
    )
    def test_cdf_sf_match_scipy(self, x):
        assert norm_cdf(x) == pytest.approx(
            scipy.special.ndtr(x), rel=1e-12, abs=1e-300
        )
        assert norm_sf(x) == pytest.approx(
            scipy.special.ndtr(-x), rel=1e-12, abs=1e-300
        )

    @pytest.mark.parametrize(
        "p",
        [1e-300, 1e-12, 1e-6, 0.001, 0.02425, 0.3, 0.5, 0.7, 0.97575,
         0.999, 1 - 1e-6, 1 - 1e-12],
    )
    def test_ppf_matches_scipy(self, p):
        assert norm_ppf(p) == pytest.approx(
            scipy.special.ndtri(p), rel=1e-9, abs=1e-12
        )

    def test_ppf_edges(self):
        assert norm_ppf(0.0) == float("-inf")
        assert norm_ppf(1.0) == float("inf")
        assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-15)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                norm_ppf(bad)

    def test_ppf_inverts_cdf(self):
        for p in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-12)


class TestRankdataAverage:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, values):
        ours = rankdata_average(np.asarray(values, dtype=np.float64))
        ref = scipy.stats.rankdata(values, method="average")
        assert np.allclose(ours, ref)

    def test_ties(self):
        assert list(rankdata_average(np.array([2.0, 1.0, 2.0]))) == [2.5, 1.0, 2.5]


class TestWilcoxonSignedRank:
    def _reference(self, diffs, method):
        x = np.asarray(diffs, dtype=np.float64)
        return scipy.stats.wilcoxon(
            x, zero_method="wilcox", method=method, alternative="two-sided"
        )

    @given(
        st.lists(
            st.integers(min_value=-30, max_value=30), min_size=6, max_size=40
        ).filter(lambda d: any(v != 0 for v in d))
    )
    @settings(max_examples=80, deadline=None)
    def test_approx_matches_scipy(self, diffs):
        res = wilcoxon_signed_rank(diffs, method="approx")
        ref = self._reference(diffs, "approx")
        assert res.statistic == pytest.approx(ref.statistic)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-12)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=3,
            max_size=25,
            unique=True,
        ),
        st.lists(st.booleans(), min_size=25, max_size=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_scipy(self, magnitudes, signs):
        # Unique magnitudes -> no ties, no zeros -> exact null is valid.
        diffs = [
            m if neg else -m for m, neg in zip(magnitudes, signs)
        ]
        res = wilcoxon_signed_rank(diffs, method="exact")
        ref = self._reference(diffs, "exact")
        assert res.statistic == pytest.approx(ref.statistic)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=1e-15)

    def test_auto_picks_exact_for_clean_small_samples(self):
        diffs = [3, -1, 4, -5, 9, 2, -6, 8]
        auto = wilcoxon_signed_rank(diffs)
        exact = wilcoxon_signed_rank(diffs, method="exact")
        assert auto.method == "exact"
        assert auto.p_value == exact.p_value

    @given(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=8, max_size=12
        ).filter(lambda d: any(v != 0 for v in d))
    )
    @settings(max_examples=60, deadline=None)
    def test_small_n_exact_and_approx_agree_in_verdict(self, diffs):
        # The two methods disagree numerically but must stay in the same
        # ballpark on small clean-ish samples (factor ~2 on the p-value).
        approx = wilcoxon_signed_rank(diffs, method="approx")
        assert 0.0 <= approx.p_value <= 1.0
        if approx.method == "degenerate":
            return
        clean = len(set(map(abs, diffs))) == len(diffs) and 0 not in diffs
        if clean:
            exact = wilcoxon_signed_rank(diffs, method="exact")
            assert exact.p_value == pytest.approx(
                approx.p_value, rel=0.9, abs=0.12
            )

    def test_paired_form_equals_diff_form(self):
        x = [10, 12, 9, 14, 11, 8]
        y = [11, 10, 9, 12, 15, 6]
        paired = wilcoxon_signed_rank(x, y)
        diffed = wilcoxon_signed_rank([a - b for a, b in zip(x, y)])
        assert paired.p_value == diffed.p_value
        assert paired.statistic == diffed.statistic

    def test_all_zero_differences_degenerate(self):
        res = wilcoxon_signed_rank([0, 0, 0, 0])
        assert res.method == "degenerate"
        assert res.p_value == 1.0
        assert res.n == 0
        assert res.zeros == 4

    def test_zeros_discarded(self):
        with_zeros = wilcoxon_signed_rank([0, 3, -1, 0, 4, -5])
        without = wilcoxon_signed_rank([3, -1, 4, -5])
        assert with_zeros.zeros == 2
        assert with_zeros.p_value == without.p_value

    def test_exact_with_ties_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 1, -2, 3], method="exact")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([])

    def test_bad_method_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], method="bogus")

    def test_mismatched_pair_lengths_raise(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2, 3], [1, 2])


class TestVarghaDelaneyA12:
    @given(
        st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=30
        ),
        st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=30
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_mann_whitney_u(self, x, y):
        a12 = vargha_delaney_a12(x, y)
        u1 = scipy.stats.mannwhitneyu(
            x, y, alternative="two-sided"
        ).statistic
        assert a12 == pytest.approx(u1 / (len(x) * len(y)), rel=1e-12, abs=1e-12)

    @given(
        st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=20
        ),
        st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=20
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y):
        assert vargha_delaney_a12(x, y) + vargha_delaney_a12(y, x) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_stochastic_dominance(self):
        assert vargha_delaney_a12([10, 11, 12], [1, 2, 3]) == 1.0
        assert vargha_delaney_a12([1, 2, 3], [10, 11, 12]) == 0.0
        assert vargha_delaney_a12([1, 2], [1, 2]) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            vargha_delaney_a12([], [1.0])

    def test_magnitude_bands(self):
        assert a12_magnitude(0.5) == "negligible"
        assert a12_magnitude(0.44) == "small"
        assert a12_magnitude(0.36) == "medium"
        assert a12_magnitude(0.29) == "large"
        assert a12_magnitude(0.75) == "large"


class TestSortedQuantile:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(width=64), min_size=1, max_size=30),
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.975, 1.0]),
        ),
    )
    def test_bit_equal_to_numpy(self, values, q):
        """Same float as np.quantile's default method, NaN, inf and signed
        zeros included (repr tells -0.0 from 0.0 and round-trips)."""
        arr = np.asarray(values, dtype=float)
        ours = sorted_quantile(np.sort(arr), q)
        with np.errstate(invalid="ignore"):
            theirs = float(np.quantile(arr, q))
        assert repr(ours) == repr(theirs)

    def test_bootstrap_leaves_numpy_ma_unloaded(self):
        """np.quantile's first call imports numpy.ma; the bootstrap's own
        quantile keeps that import off a cold ``matrix --stats``."""
        code = (
            "import sys\n"
            "from repro.util.rng import RngStream\n"
            "from repro.util.stats import bootstrap_ci\n"
            "bootstrap_ci(list(range(20)), sum, rng=RngStream('t'),"
            " n_resamples=50)\n"
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestBootstrapCi:
    def _rng(self, *key):
        return RngStream("tests.bootstrap", *key)

    def test_deterministic_per_stream_key(self):
        data = np.arange(30, dtype=np.float64)
        a = bootstrap_ci(data, np.mean, rng=self._rng("a"), n_resamples=200)
        b = bootstrap_ci(data, np.mean, rng=self._rng("a"), n_resamples=200)
        c = bootstrap_ci(data, np.mean, rng=self._rng("c"), n_resamples=200)
        assert (a.low, a.high) == (b.low, b.high)
        assert (a.low, a.high) != (c.low, c.high)

    def test_vectorized_equals_scalar_path(self):
        data = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 9.0, 2.5])

        def vec_mean(rows):
            return np.mean(rows, axis=-1)

        scalar = bootstrap_ci(
            data, np.mean, rng=self._rng("v"), n_resamples=300
        )
        vector = bootstrap_ci(
            data, vec_mean, rng=self._rng("v"), n_resamples=300,
            vectorized=True,
        )
        assert scalar.low == pytest.approx(vector.low, rel=1e-12)
        assert scalar.high == pytest.approx(vector.high, rel=1e-12)

    def test_bca_matches_scipy_special_reference(self):
        """Reproduce the BCa endpoints with a scipy.special reference on
        the identical resample matrix — the interval math itself (z0,
        acceleration, adjusted quantiles) must agree to 1e-8."""
        data = np.array(
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0]
        )
        n = data.size
        n_resamples, confidence = 500, 0.95
        ours = bootstrap_ci(
            data, np.mean, rng=self._rng("bca"), n_resamples=n_resamples,
            confidence=confidence, method="bca",
        )
        idx = self._rng("bca").integer_matrix((n_resamples, n), 0, n)
        theta_b = data[idx].mean(axis=1)
        theta_hat = data.mean()
        frac = (
            (theta_b < theta_hat).sum() + (theta_b <= theta_hat).sum()
        ) / (2 * n_resamples)
        z0 = scipy.special.ndtri(frac)
        jack = np.array([
            np.delete(data, i).mean() for i in range(n)
        ])
        u = jack.mean() - jack
        accel = (u**3).sum() / (6.0 * (u**2).sum() ** 1.5)
        alpha = 1.0 - confidence

        def adj(q):
            zq = z0 + scipy.special.ndtri(q)
            return scipy.special.ndtr(z0 + zq / (1.0 - accel * zq))

        low, high = np.quantile(
            theta_b, [adj(alpha / 2), adj(1 - alpha / 2)]
        )
        assert ours.estimate == pytest.approx(theta_hat)
        assert ours.low == pytest.approx(low, abs=1e-8)
        assert ours.high == pytest.approx(high, abs=1e-8)

    def test_percentile_matches_quantiles(self):
        data = np.linspace(0.0, 10.0, 25)
        ours = bootstrap_ci(
            data, np.median, rng=self._rng("pct"), n_resamples=400,
            method="percentile",
        )
        idx = self._rng("pct").integer_matrix((400, data.size), 0, data.size)
        theta_b = np.median(data[idx], axis=1)
        low, high = np.quantile(theta_b, [0.025, 0.975])
        assert ours.low == pytest.approx(low)
        assert ours.high == pytest.approx(high)

    def test_constant_data_degenerate(self):
        ci = bootstrap_ci(
            np.full(12, 1.0), np.mean, rng=self._rng("const"),
            n_resamples=100,
        )
        assert ci.low == ci.high == ci.estimate == 1.0
        assert ci.width == 0.0

    def test_interval_brackets_estimate(self):
        data = np.array([1.0, 2.0, 2.5, 3.0, 7.0, 4.0, 3.5, 2.0])
        ci = bootstrap_ci(data, np.mean, rng=self._rng("br"), n_resamples=500)
        assert ci.low <= ci.estimate <= ci.high

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], np.mean, rng=self._rng("e"))
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], np.mean, rng=self._rng("e"), n_resamples=0)
        with pytest.raises(ValueError):
            bootstrap_ci(
                [1.0, 2.0], np.mean, rng=self._rng("e"), confidence=1.5
            )
        with pytest.raises(ValueError):
            bootstrap_ci(
                [1.0, 2.0], np.mean, rng=self._rng("e"), method="magic"
            )


class TestHolmBonferroni:
    def test_reference_example(self):
        adjusted = holm_bonferroni([0.01, 0.04, 0.03, 0.005])
        assert adjusted == pytest.approx((0.03, 0.06, 0.06, 0.02))

    def test_single_p_unchanged(self):
        assert holm_bonferroni([0.2]) == pytest.approx((0.2,))

    def test_capped_at_one(self):
        assert max(holm_bonferroni([0.5, 0.6, 0.9])) <= 1.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_dominates_raw(self, ps):
        adjusted = holm_bonferroni(ps)
        order = np.argsort(ps, kind="stable")
        sorted_adj = [adjusted[i] for i in order]
        assert all(
            a <= b + 1e-15 for a, b in zip(sorted_adj, sorted_adj[1:])
        )
        assert all(a >= p for a, p in zip(adjusted, ps))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            holm_bonferroni([0.5, 1.5])
        with pytest.raises(ValueError):
            holm_bonferroni([-0.1])

    def test_empty_is_empty(self):
        assert holm_bonferroni([]) == ()
