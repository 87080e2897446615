"""Tests for the self-normalized change-point statistics."""

import numpy as np
import pytest

from _oracle import kernel_gn, naive_gn_oracle, residual_gn
from lrdcp import (
    FgnParams,
    TimeSeries,
    build_sampler,
    critical_values,
    sample_fgn_block,
    sn_cusum_statistic,
    tn_statistic,
)
from lrdcp import _parallel, rankstat, sntest
from lrdcp.limitdist import LimitSimSpec
from lrdcp.sntest import TestWindow as Window  # alias: keep pytest from collecting it
from lrdcp.sntest import batch_tn_from_values

HAND_WINDOW = Window(0.25, 0.80)


class TestWindowContract:
    def test_rejects_reversed_fractions(self):
        with pytest.raises(ValueError, match="tau"):
            Window(0.5, 0.4)
        with pytest.raises(ValueError, match="tau"):
            Window(0.0, 0.85)

    def test_split_range_inclusive(self):
        assert Window(0.15, 0.85).split_range(100) == (15, 85)
        assert Window(0.25, 0.80).split_range(4) == (1, 3)

    def test_too_narrow_for_short_series(self):
        with pytest.raises(ValueError, match="too narrow"):
            Window(0.15, 0.85).split_range(4)

    def test_upper_split_leaves_late_segment(self):
        # splits must keep at least one observation on each side
        lo, hi = Window(0.15, 0.85).split_range(20)
        assert 1 <= lo <= hi <= 19


class TestHandExample:
    def test_point_statistic_at_middle_split(self):
        gn = kernel_gn(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2, 2)
        assert gn[0] == pytest.approx(5.65685424949238, abs=1e-10)

    def test_oracle_agrees_on_hand_example(self):
        ts = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert naive_gn_oracle(ts, 2) == pytest.approx(kernel_gn(ts, 2, 2)[0])

    def test_scan_picks_middle_split(self):
        result = tn_statistic(TimeSeries([1.0, 2.0, 3.0, 4.0]), HAND_WINDOW)
        assert result.argmax_k == 2
        assert result.statistic == pytest.approx(5.65685424949238, abs=1e-10)
        assert result.k_range == (1, 3)

    def test_cusum_matches_on_rank_valued_data(self):
        # observations equal to their own ranks make both statistics coincide
        result = sn_cusum_statistic(TimeSeries([1.0, 2.0, 3.0, 4.0]), HAND_WINDOW)
        assert result.statistic == pytest.approx(5.65685424949238, abs=1e-10)
        assert result.argmax_k == 2


class TestOracleAgreement:
    """The kernel equals the oracle at every split k in 1..n-1."""

    def test_fast_path_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for n in (10, 25, 50):
            for _ in range(20):
                ts = TimeSeries(rng.normal(size=n))
                fast = kernel_gn(ts)
                for k in range(1, n):
                    slow = naive_gn_oracle(ts, k)
                    assert fast[k - 1] == pytest.approx(slow, rel=1e-9, abs=1e-12)

    def test_oracle_agreement_with_ties(self):
        rng = np.random.default_rng(8)
        ts = TimeSeries(rng.integers(0, 6, size=30).astype(np.float64))
        fast = kernel_gn(ts)
        for k in range(1, 30):
            assert fast[k - 1] == pytest.approx(
                naive_gn_oracle(ts, k), rel=1e-9, abs=1e-12
            )


class TestInvariance:
    def test_monotone_transforms_leave_result_unchanged(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=120)
        base = tn_statistic(TimeSeries(x))
        for transform in (np.exp, np.arctan, lambda v: v**3 + 5 * v - 2):
            other = tn_statistic(TimeSeries(transform(x)))
            assert other.statistic == base.statistic
            assert other.argmax_k == base.argmax_k

    def test_affine_shift_is_exact_for_ranks(self):
        x = np.random.default_rng(15).normal(size=90)
        base = tn_statistic(TimeSeries(x))
        shifted = tn_statistic(TimeSeries(x + 17.5))
        assert shifted.statistic == base.statistic
        assert shifted.argmax_k == base.argmax_k

    def test_cusum_location_invariance(self):
        x = np.random.default_rng(16).normal(size=90)
        base = sn_cusum_statistic(TimeSeries(x))
        shifted = sn_cusum_statistic(TimeSeries(x + 4.0))
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert shifted.argmax_k == base.argmax_k

    def test_cusum_is_not_monotone_invariant(self):
        # contrast: the rank statistic ignores x -> x^3, the raw one does not
        x = np.random.default_rng(17).normal(size=120)
        base = sn_cusum_statistic(TimeSeries(x))
        cubed = sn_cusum_statistic(TimeSeries(x**3))
        assert cubed.statistic != pytest.approx(base.statistic, rel=1e-6)

    def test_reversal_reflects_split_profile(self):
        # with an integer-symmetric window, reversing the series mirrors
        # the per-split values and flips the argmax across the center
        x = np.random.default_rng(18).normal(size=100)
        window = Window(0.15, 0.85)
        lo, hi = window.split_range(100)
        fwd = batch_tn_from_values(x[None, :], lo, hi, use_ranks=True)[0]
        rev = batch_tn_from_values(x[::-1][None, :], lo, hi, use_ranks=True)[0]
        assert rev == pytest.approx(fwd, rel=1e-9)

    def test_scale_invariance_of_cusum(self):
        x = np.random.default_rng(19).normal(size=90)
        base = sn_cusum_statistic(TimeSeries(x))
        scaled = sn_cusum_statistic(TimeSeries(3.0 * x))
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)

    @pytest.mark.parametrize("exponent", [-1000, -60, -24, 24, 60, 500, 1000])
    def test_cusum_power_of_two_scale_keeps_every_bit(self, exponent):
        x = np.random.default_rng(0).standard_normal(200)
        base = sn_cusum_statistic(TimeSeries(x))
        scaled = sn_cusum_statistic(TimeSeries(2.0**exponent * x))
        assert scaled.statistic == base.statistic
        assert scaled.profile.tobytes() == base.profile.tobytes()
        assert not np.isnan(scaled.profile).any()
        assert not scaled.degenerate_flag

    @pytest.mark.parametrize("offset", [1e7, 1e12])
    def test_cusum_offset_is_not_degenerate(self, offset):
        # an offset far above the spread must not push the deviations
        # under the degenerate rule's floor
        x = np.random.default_rng(0).standard_normal(200)
        base = sn_cusum_statistic(TimeSeries(x))
        shifted = sn_cusum_statistic(TimeSeries(x + offset), critical_value=8.4)
        assert not shifted.degenerate_flag
        assert shifted.reject is False
        assert shifted.statistic == pytest.approx(base.statistic, rel=0.01)

    @pytest.mark.parametrize("offset", [1e12, -1e12])
    def test_cusum_offset_keeps_its_digits(self, offset):
        # the median element takes the offset off exactly, so only the
        # rounding of x + offset itself is left (about 1e-4 here)
        x = np.random.default_rng(0).standard_normal(200)
        base = sn_cusum_statistic(TimeSeries(x))
        shifted = sn_cusum_statistic(TimeSeries(x + offset))
        assert abs(shifted.statistic - base.statistic) <= 1e-3


class TestDegenerateCases:
    def test_constant_series_scores_zero(self):
        result = tn_statistic(TimeSeries(np.full(40, 2.0)))
        assert result.statistic == 0.0
        assert result.degenerate_flag
        assert result.tie_flag

    @pytest.mark.parametrize("level", [1.0, 7.0, 1e10, 3.3e-200])
    def test_constant_series_is_degenerate_for_cusum(self, level):
        result = sn_cusum_statistic(TimeSeries(np.full(50, level)))
        assert result.statistic == 0.0
        assert result.degenerate_flag

    def test_isolated_level_shift_gives_infinite_statistic(self):
        # nine tied observations after a lone high start: the deviation
        # process is flat on both sides of split one while the numerator
        # stays positive, so self-normalization divides by zero
        values = np.array([5.0] + [1.0] * 9)
        result = tn_statistic(TimeSeries(values), Window(0.10, 0.95))
        assert np.isinf(result.statistic)
        assert result.degenerate_flag
        assert result.argmax_k == 1

    def test_rejection_fields_default_to_none(self):
        result = tn_statistic(TimeSeries(np.random.default_rng(1).normal(size=50)))
        assert result.critical_value is None
        assert result.reject is None

    def test_rejection_decision_with_threshold(self):
        ts = TimeSeries(np.random.default_rng(1).normal(size=50))
        result = tn_statistic(ts, critical_value=1e9)
        assert result.reject is False
        result = tn_statistic(ts, critical_value=1e-9)
        assert result.reject is True
        assert result.critical_value == 1e-9


class TestArgmaxWiring:
    def test_argmax_is_first_maximizer(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ts = TimeSeries(rng.normal(size=60))
            result = tn_statistic(ts)
            lo, hi = result.k_range
            values = np.array([naive_gn_oracle(ts, k) for k in range(lo, hi + 1)])
            assert result.statistic == pytest.approx(values.max(), rel=1e-12)
            assert result.argmax_k == lo + int(np.argmax(values))


class TestBatchKernel:
    def test_batch_rows_match_single_series_calls(self):
        rng = np.random.default_rng(29)
        values = rng.normal(size=(10, 80))
        lo, hi = Window(0.15, 0.85).split_range(80)
        batch = batch_tn_from_values(values, lo, hi, use_ranks=True)
        for row in range(10):
            single = tn_statistic(TimeSeries(values[row]))
            assert batch[row] == single.statistic

    def test_batch_cusum_matches_single_calls(self):
        rng = np.random.default_rng(30)
        values = rng.normal(size=(6, 64))
        lo, hi = Window(0.15, 0.85).split_range(64)
        # each row as sn_cusum_statistic prepares it: scaled to a unit
        # range, then its median element subtracted
        scaled = [sntest._unit_scaled(row) for row in values]
        prepared = np.array([v - np.partition(v, 32)[32] for v in scaled])
        batch = batch_tn_from_values(prepared, lo, hi, use_ranks=False)
        for row in range(6):
            single = sn_cusum_statistic(TimeSeries(values[row]))
            assert batch[row] == single.statistic


def rows_per_block(n):
    return max(1, _parallel.BLOCK_BYTES // (8 * (n + 1)))


class TestRowBlocks:
    """Row blocks inside a batch never change a row's value."""

    def assert_matches_unblocked(self, values, use_ranks, monkeypatch):
        n = values.shape[1]
        lo, hi = Window().split_range(n)
        blocked = batch_tn_from_values(values, lo, hi, use_ranks)
        rows = [
            batch_tn_from_values(row[np.newaxis], lo, hi, use_ranks)[0]
            for row in values
        ]
        assert blocked.tobytes() == np.array(rows).tobytes()
        # the whole batch as one block, as before row blocks existed
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 1 << 40)
        whole = batch_tn_from_values(values, lo, hi, use_ranks)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("use_ranks", [True, False])
    def test_two_and_a_half_blocks(self, use_ranks, monkeypatch):
        n = 1000
        values = np.random.default_rng(41).normal(
            size=(5 * rows_per_block(n) // 2, n)
        )
        assert values.shape[0] % rows_per_block(n) != 0
        self.assert_matches_unblocked(values, use_ranks, monkeypatch)

    @pytest.mark.parametrize("use_ranks", [True, False])
    def test_tied_rows_across_a_block_boundary(self, use_ranks, monkeypatch):
        n = 500
        edge = rows_per_block(n)
        values = np.random.default_rng(42).normal(size=(edge + 3, n))
        values[edge - 2 : edge + 2] = np.round(values[edge - 2 : edge + 2], 1)
        self.assert_matches_unblocked(values, use_ranks, monkeypatch)

    @pytest.mark.parametrize("use_ranks", [True, False])
    def test_one_row_per_block(self, use_ranks, monkeypatch):
        n = 40_000
        assert rows_per_block(n) == 1
        values = np.random.default_rng(43).normal(size=(3, n))
        self.assert_matches_unblocked(values, use_ranks, monkeypatch)


    @pytest.mark.parametrize("use_ranks", [True, False])
    def test_degenerate_rows_among_ordinary_ones(self, use_ranks,
                                                 monkeypatch):
        # TestDegenerateCases' constant row and lone-high-start row fail
        # the block's degenerate bound, so every split of it is scanned
        values = np.random.default_rng(44).normal(size=(6, 10))
        values[1] = 2.0
        values[4] = [5.0] + [1.0] * 9
        self.assert_matches_unblocked(values, use_ranks, monkeypatch)
        lo, hi = Window().split_range(10)
        d, _ = rankstat.deviation_rows(rankstat.rankdata(values), True)
        _, flags = sntest._gn_matrix(d, lo, hi)
        assert flags.tolist() == [False, True, False, False, True, False]
        for row in (1, 4):
            assert tn_statistic(TimeSeries(values[row])).degenerate_flag


class TestShapeConstants:
    """Arrays that depend only on a block's shape are kept per shape."""

    KEYS = [
        (rankstat._rank_constants, (65, 500)),
        (rankstat._profile_constants, (500,)),
        (sntest._gn_constants, (500, 75, 425)),
    ]

    @pytest.mark.parametrize("build, key", KEYS,
                             ids=["ranks", "profile", "gn"])
    def test_kept_arrays_are_read_only(self, build, key):
        kept = rankstat._shape_constants((65, 500), build, *key)
        assert rankstat._shape_constants((65, 500), build, *key) is kept
        for array, fresh in zip(kept, build(*key), strict=True):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            assert array.tobytes() == fresh.tobytes()

    def test_series_longer_than_a_block_keeps_nothing(self):
        n = _parallel.BLOCK_BYTES // 8  # its (1, n+1) profile is too big
        series = TimeSeries(np.random.default_rng(45).normal(size=n))
        before = rankstat._kept.cache_info()
        tn_statistic(series)
        sn_cusum_statistic(series)
        assert rankstat._kept.cache_info() == before


class TestLongSeriesAccuracy:
    # the bound was fixed before the first run; the kernel's expanded
    # normalizer cancels most when d is near linear in t, as under a
    # large shift
    BOUND = 1e-8

    @pytest.mark.parametrize("ranked", [True, False], ids=["rank", "value"])
    @pytest.mark.parametrize("delta", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_kernel_agrees_with_the_residual_form(self, n, delta, ranked):
        x = sample_fgn_block(build_sampler(FgnParams(0.7, n)), 5, [0])
        x[:, n // 2 :] += delta
        if ranked:
            x = rankstat.rankdata(x)
        d, num_scale = rankstat.deviation_rows(x, ranked)
        k_lo, k_hi = Window().split_range(n)
        gn, _ = sntest._gn_matrix(d, k_lo, k_hi, num_scale)
        rng = np.random.default_rng(n)
        splits = [k_lo, k_hi, n // 2, *rng.integers(k_lo, k_hi + 1, 22)]
        errors = [
            abs(gn[0, k - k_lo] / residual_gn(d[0], k) - 1.0) for k in splits
        ]
        assert max(errors) < self.BOUND


class TestOutlierRobustness:
    def test_rank_statistic_is_steadier_under_contamination(self):
        # a single gross outlier flips far fewer rank-test decisions
        reps, n, hurst = 300, 200, 0.7
        sampler = build_sampler(FgnParams(hurst, n))
        clean = sample_fgn_block(sampler, 77, range(reps))
        dirty = clean.copy()
        dirty[:, n // 2] += 100.0

        spec = LimitSimSpec(hurst, grid_size=300, replications=2000, master_seed=4)
        cv = critical_values(spec).critical_value(0.05)
        lo, hi = Window(0.15, 0.85).split_range(n)

        def flip_count(use_ranks):
            base = batch_tn_from_values(clean, lo, hi, use_ranks) > cv
            off = batch_tn_from_values(dirty, lo, hi, use_ranks) > cv
            return int(np.sum(base != off))

        assert flip_count(True) < flip_count(False)
