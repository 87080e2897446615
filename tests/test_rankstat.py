"""Tests for rank profiles and deviation processes."""

import numpy as np
import pytest
from scipy import stats

from lrdcp import TimeSeries, build_profile
from lrdcp.rankstat import _midranks, deviation_rows, rankdata


def brute_two_sample_sums(values):
    """Independent O(n^2) transcription of the rank deviation process.

    Entry k counts, over pairs (i <= k < j), the indicator that the early
    observation does not exceed the late one, centered by one half.  Ties
    contribute one half to the indicator.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        total = 0.0
        for i in range(k):
            for j in range(k, n):
                if x[i] < x[j]:
                    ind = 1.0
                elif x[i] == x[j]:
                    ind = 0.5
                else:
                    ind = 0.0
                total += ind - 0.5
        out[k] = total
    return out


class TestTimeSeries:
    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least 4"):
            TimeSeries(np.array([3.0, 1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.nan, 2.0, 3.0]))
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.inf, 2.0, 3.0]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-d"):
            TimeSeries(np.zeros((4, 4)))

    def test_accepts_list_input(self):
        ts = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert ts.n == 4


class TestComputeRanks:
    def test_distinct_values(self):
        assert np.array_equal(
            rankdata(np.array([3.0, 1.0, 2.0, 4.0])), [3.0, 1.0, 2.0, 4.0]
        )

    def test_midranks_for_ties(self):
        ranks = rankdata(np.array([10.0, -1.0, 7.0, 7.0, 2.0]))
        assert np.array_equal(ranks, [5.0, 1.0, 3.5, 3.5, 2.0])

    def test_pair_tie(self):
        ranks = rankdata(np.array([5.0, 5.0, 1.0, 9.0]))
        assert np.array_equal(ranks, [2.5, 2.5, 1.0, 4.0])

    def test_rank_sum_is_preserved_under_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            x = rng.integers(0, 5, size=n).astype(np.float64)
            assert rankdata(x).sum() == n * (n + 1) / 2


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def rank_rows(n, rng):
    """Rows covering every ranking case: tie-free, tied, all equal, signed zero."""
    zeros = rng.choice([-0.0, 0.0], size=n)
    zeros[: n // 2] = rng.normal(size=n // 2)
    return np.stack([
        rng.normal(size=n),
        rng.integers(0, max(2, n // 4), size=n).astype(np.float64),
        np.round(rng.normal(size=n), 1),
        np.full(n, -1.5),
        rng.choice([-0.0, 0.0], size=n),
        zeros,
    ])


class TestRankdata:
    @pytest.mark.parametrize("n", [4, 5, 17, 100, 1000, 20_000])
    def test_batch_matches_scipy_bit_for_bit(self, n):
        rows = rank_rows(n, np.random.default_rng(n))
        assert_same_bits(
            rankdata(rows), stats.rankdata(rows, method="average", axis=-1)
        )

    @pytest.mark.parametrize("n", [4, 5, 17, 100, 1000, 20_000])
    def test_single_rows_match_scipy_bit_for_bit(self, n):
        for row in rank_rows(n, np.random.default_rng(n + 1)):
            assert_same_bits(rankdata(row), stats.rankdata(row, method="average"))

    def test_batch_of_tie_free_rows_matches_scipy(self):
        rows = np.random.default_rng(2).normal(size=(50, 500))
        assert_same_bits(
            rankdata(rows), stats.rankdata(rows, method="average", axis=-1)
        )

    @pytest.mark.parametrize("n", [5, 1000, 20_000])
    def test_scrambled_near_ties_match_scipy(self, n):
        # distinct values a few ulps apart share their keys' high bits, so
        # the key order leaves them unsorted; a tie-free row rides along
        rng = np.random.default_rng(n + 2)
        near = 1.0 + np.arange(n) * 2.0**-52
        near[-1] = near[0]
        rows = np.stack([rng.permutation(near), rng.normal(size=n)])
        assert_same_bits(
            rankdata(rows), stats.rankdata(rows, method="average", axis=-1)
        )
        assert _midranks(rows)[1].tolist() == [True, False]

    @pytest.mark.parametrize("n", [1000, 20_000])
    def test_nearly_sorted_near_ties_match_scipy(self, n):
        # one swapped pair among near-ties: the block is fixed up by the
        # same default-kind argsort as the scrambled rows (above)
        near = 1.0 + np.arange(n) * 2.0**-52
        near[-1] = near[0]
        near[[1, 2]] = near[[2, 1]]
        rows = np.stack([near, np.random.default_rng(n).normal(size=n)])
        assert_same_bits(
            rankdata(rows), stats.rankdata(rows, method="average", axis=-1)
        )
        assert _midranks(rows)[1].tolist() == [True, False]

    def test_tie_flag_matches_distinct_count(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(4, 60))
            x = rng.integers(0, 2 * n, size=n).astype(np.float64)
            expected = np.unique(x).shape[0] < n
            assert build_profile(TimeSeries(x))[1] == expected


class TestBuildProfile:
    def test_increasing_run_deviations(self):
        d, tie_flag = build_profile(TimeSeries([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(d[1:], [1.5, 2.0, 1.5, 0.0])
        assert not tie_flag

    def test_index_conventions(self):
        d, _ = build_profile(TimeSeries([4.0, 2.0, 3.0, 1.0]))
        # d is indexed by k = 0..n and opens with the empty sum
        assert d.shape == (5,)
        assert d[0] == 0.0

    def test_matches_pairwise_double_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            x = rng.normal(size=n)
            d, _ = build_profile(TimeSeries(x))
            assert np.array_equal(d, brute_two_sample_sums(x))

    def test_double_sum_with_ties(self):
        x = np.array([2.0, 2.0, 1.0, 3.0, 2.0, 0.0])
        d, tie_flag = build_profile(TimeSeries(x))
        assert np.array_equal(d, brute_two_sample_sums(x))
        assert tie_flag

    def test_final_deviation_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(4, 100)))
            assert build_profile(TimeSeries(x))[0][-1] == 0.0

    def test_constant_series_is_degenerate(self):
        d, tie_flag = build_profile(TimeSeries(np.full(12, 3.25)))
        assert np.all(d == 0.0)
        assert tie_flag

    def test_profile_depends_only_on_ranks(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=80)
        base, _ = build_profile(TimeSeries(x))
        for transform in (np.exp, np.arctan, lambda v: v**3 + 2 * v):
            other, _ = build_profile(TimeSeries(transform(x)))
            assert np.array_equal(base, other)

    def test_profile_reports_length(self):
        d, tie_flag = build_profile(TimeSeries(np.arange(9.0)))
        assert d.shape == (10,)
        assert tie_flag is False


def value_profile(x):
    d, _ = deviation_rows(x[np.newaxis], ranked=False)
    return d[0]


class TestDeviationProfile:
    def test_cusum_final_entry_vanishes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        d = value_profile(x)
        assert d[0] == 0.0
        assert d[-1] == pytest.approx(0.0, abs=1e-9)

    def test_matches_centered_partial_sums(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        d = value_profile(x)
        for t in range(41):
            expected = (t / 40) * x.sum() - x[:t].sum()
            assert d[t] == pytest.approx(expected, abs=1e-10)

    def test_rank_input_reproduces_rank_deviations(self):
        x = np.random.default_rng(6).normal(size=25)
        d, _ = build_profile(TimeSeries(x))
        assert value_profile(rankdata(x)) == pytest.approx(d)

