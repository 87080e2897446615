"""Tests for the simulated limit distribution and critical values."""

import json
import math

import numpy as np
import pytest

from lrdcp import (
    CriticalValueTable,
    LimitSimSpec,
    critical_values,
    simulate_limit_values,
    upper_quantile,
)
from lrdcp.fgn import STREAM_LIMIT, FgnParams, build_sampler, sample_fgn_block
from lrdcp.sntest import TestWindow as Window  # alias: keep pytest from collecting it
from lrdcp.sntest import batch_tn_from_values

FAST = dict(grid_size=200, replications=2000)


def direct_functional(path, k_lo, k_hi):
    """Literal transcription of the discretized limit functional.

    Works from the path (running sums) rather than the increments and
    mirrors the defining ratio term by term; cross-checks the production
    deviation-profile route.
    """
    n = path.size
    best = 0.0
    for k in range(k_lo, k_hi + 1):
        num = abs(path[k - 1] - (k / n) * path[n - 1])
        first = 0.0
        for t in range(1, k + 1):
            first += (path[t - 1] - (t / k) * path[k - 1]) ** 2
        second = 0.0
        for t in range(k + 1, n + 1):
            bridge = path[k - 1] + (t - k) / (n - k) * (path[n - 1] - path[k - 1])
            second += (path[t - 1] - bridge) ** 2
        den = (first + second) / n
        if den < 1e-12 * n * (1.0 + num * num):
            value = math.inf if num > 0 else 0.0
        else:
            value = num / math.sqrt(den)
        best = max(best, value)
    return best


class TestSpecValidation:
    def test_hurst_bounds(self):
        for bad in (0.5, 1.0, 0.3):
            with pytest.raises(ValueError, match="hurst"):
                LimitSimSpec(bad)

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="grid_size"):
            LimitSimSpec(0.7, grid_size=50)

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="replications"):
            LimitSimSpec(0.7, replications=10)

    def test_level_bounds(self):
        with pytest.raises(ValueError, match="levels"):
            LimitSimSpec(0.7, levels=(0.05, 1.5))


class TestFunctional:
    def test_linear_path_scores_zero(self):
        # constant increments make the deviation process vanish identically
        flat = np.full((1, 500), 1.0 / 500)
        assert batch_tn_from_values(flat, 75, 425, use_ranks=False)[0] == 0.0

    def test_direct_transcription_agrees(self):
        # dual-route check of the discretized functional on fBm paths
        grid, paths = 100, 100
        sampler = build_sampler(FgnParams(0.7, grid))
        increments = sample_fgn_block(sampler, 99, range(paths), stream=STREAM_LIMIT)
        k_lo, k_hi = Window().split_range(grid)
        fast = batch_tn_from_values(increments, k_lo, k_hi, use_ranks=False)
        for row in range(paths):
            slow = direct_functional(np.cumsum(increments[row]), k_lo, k_hi)
            assert fast[row] == pytest.approx(slow, rel=1e-9)

    def test_sample_matches_block_entry(self):
        # single-replication draws must be chunking invariant
        spec = LimitSimSpec(0.7, grid_size=150, replications=600, master_seed=5)
        values = simulate_limit_values(spec)
        assert values.shape == (600,)
        sampler = build_sampler(FgnParams(0.7, 150))
        k_lo, k_hi = spec.window.split_range(150)
        for rep in (0, 7, 599):
            increments = sample_fgn_block(sampler, 5, [rep], stream=STREAM_LIMIT)
            one = batch_tn_from_values(increments, k_lo, k_hi, use_ranks=False)
            assert one[0] == values[rep]


class TestUpperQuantile:
    def test_exact_order_statistics(self):
        values = np.arange(1.0, 101.0)
        assert upper_quantile(values, 0.05) == 95.0
        assert upper_quantile(values, 0.10) == 90.0
        assert upper_quantile(values, 0.01) == 99.0

    def test_small_sample_rank(self):
        values = np.arange(1.0, 11.0)
        assert upper_quantile(values, 0.5) == 5.0

    def test_rank_clamping(self):
        values = np.arange(1.0, 11.0)
        assert upper_quantile(values, 0.9999) == 1.0
        assert upper_quantile(values, 0.0001) == 10.0


class TestCriticalValues:
    def test_deterministic_given_seed(self):
        spec = LimitSimSpec(0.7, master_seed=2, **FAST)
        assert critical_values(spec).quantiles == critical_values(spec).quantiles

    def test_seed_changes_table(self):
        a = critical_values(LimitSimSpec(0.7, master_seed=1, **FAST))
        b = critical_values(LimitSimSpec(0.7, master_seed=2, **FAST))
        assert a.quantiles != b.quantiles

    def test_quantiles_increase_as_level_shrinks(self):
        table = critical_values(LimitSimSpec(0.8, master_seed=3, **FAST))
        assert (
            table.critical_value(0.10)
            <= table.critical_value(0.05)
            <= table.critical_value(0.01)
        )

    def test_quantiles_increase_with_hurst(self):
        low = critical_values(LimitSimSpec(0.6, master_seed=4, **FAST))
        high = critical_values(LimitSimSpec(0.9, master_seed=4, **FAST))
        assert high.critical_value(0.05) > low.critical_value(0.05)

    def test_metadata_recorded(self):
        table = critical_values(LimitSimSpec(0.7, master_seed=6, **FAST))
        assert table.hurst == 0.7
        assert table.window == Window()
        assert table.replications == 2000
        assert table.grid_size == 200
        assert table.master_seed == 6

    def test_missing_level_message(self):
        table = critical_values(LimitSimSpec(0.7, master_seed=6, **FAST))
        with pytest.raises(ValueError, match="missing critical value"):
            table.critical_value(0.025)


class TestTableSerialization:
    def test_json_round_trip(self):
        table = critical_values(LimitSimSpec(0.7, master_seed=8, **FAST))
        again = CriticalValueTable.from_json(table.to_json())
        assert again == table

    def test_json_schema_keys(self):
        table = critical_values(LimitSimSpec(0.7, master_seed=8, **FAST))
        payload = json.loads(table.to_json())
        assert set(payload) == {
            "hurst", "window", "grid", "reps", "seed", "generator", "quantiles",
        }
        assert set(payload["quantiles"]) == {"0.1", "0.05", "0.01"}
        assert payload["window"] == [0.15, 0.85]


class TestCheckMatches:
    TABLE = CriticalValueTable(hurst=0.7, window=Window(), quantiles={0.05: 8.0})

    def test_matching_table_passes(self):
        self.TABLE.check_matches(0.7, Window())

    def test_other_hurst(self):
        with pytest.raises(ValueError) as excinfo:
            self.TABLE.check_matches(0.6, Window())
        assert str(excinfo.value) == (
            "critical-value table is for hurst=0.7, requested hurst=0.6"
        )

    def test_other_window(self):
        with pytest.raises(ValueError) as excinfo:
            self.TABLE.check_matches(0.7, Window(0.2, 0.8))
        assert str(excinfo.value) == (
            "critical-value table window (0.15, 0.85) does not match "
            "requested window (0.2, 0.8)"
        )


class TestTableValidation:
    def table_payload(self):
        table = critical_values(LimitSimSpec(0.7, master_seed=8, **FAST))
        return json.loads(table.to_json())

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: [], "JSON object"),
            (lambda p: {k: v for k, v in p.items() if k != "hurst"}, "'hurst'"),
            (lambda p: {**p, "hurst": "0.7"}, "hurst"),
            (lambda p: {**p, "window": [0.15]}, "window"),
            (lambda p: {**p, "window": ["0.15", 0.85]}, "window"),
            (lambda p: {**p, "quantiles": [1, 2]}, "quantiles"),
            (lambda p: {**p, "quantiles": {}}, "quantiles"),
            (lambda p: {**p, "quantiles": {"0.05": None}}, "quantiles"),
            (lambda p: {**p, "quantiles": {"five": 8.4}}, "quantiles"),
            (lambda p: {**p, "quantiles": {"1.5": 8.4}}, "quantiles"),
        ],
        ids=[
            "top-level-list", "missing-key", "string-hurst", "short-window",
            "string-window", "quantile-list", "no-quantiles", "null-quantile",
            "word-level", "level-above-one",
        ],
    )
    def test_malformed_payload_raises_value_error(self, change, message):
        text = json.dumps(change(self.table_payload()))
        with pytest.raises(ValueError, match=message) as excinfo:
            CriticalValueTable.from_json(text)
        assert "\n" not in str(excinfo.value)

    def test_non_finite_quantile_rejected(self):
        payload = self.table_payload()
        payload["quantiles"]["0.05"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            CriticalValueTable.from_json(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(ValueError, match="not JSON"):
            CriticalValueTable.from_json("{not json")


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_spec_rejects_seed_outside_range(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            LimitSimSpec(0.7, master_seed=seed, **FAST)

    def test_largest_seed_accepted(self):
        spec = LimitSimSpec(0.7, master_seed=(1 << 63) - 1, **FAST)
        assert spec.master_seed == (1 << 63) - 1


class TestMonteCarloError:
    def test_quantile_error_halves_with_four_times_the_draws(self):
        # bootstrap spread of the 5% critical value should scale like
        # one over the square root of the replication count
        small = simulate_limit_values(
            LimitSimSpec(0.7, grid_size=200, replications=800, master_seed=10)
        )
        large = simulate_limit_values(
            LimitSimSpec(0.7, grid_size=200, replications=3200, master_seed=11)
        )
        rng = np.random.default_rng(0)

        def bootstrap_sd(values):
            stats = [
                upper_quantile(
                    np.sort(rng.choice(values, size=values.size, replace=True)),
                    0.05,
                )
                for _ in range(300)
            ]
            return np.std(stats)

        ratio = bootstrap_sd(small) / bootstrap_sd(large)
        assert 1.3 < ratio < 3.0
