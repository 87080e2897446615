"""Tests for the simulated limit distribution and critical values."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from lrdcp import (
    CriticalValueTable,
    ExperimentSpec,
    LimitSimSpec,
    critical_values,
    limitdist,
    simulate_limit_values,
    upper_quantile,
)
from lrdcp.fgn import (STREAM_EXPERIMENT, STREAM_LIMIT, FgnParams,
                       build_sampler, sample_fgn, sample_fgn_block)
from lrdcp.limitdist import SimChunk, simulate_chunk
from lrdcp.sntest import TestWindow as Window  # alias: keep pytest from collecting it
from lrdcp.sntest import batch_tn_from_values

FAST = dict(grid_size=200, replications=2000)

# values an integer field (count or seed) must refuse
NOT_INTEGERS = [1.5, 100.0, True, np.float64(100)]
NOT_INTEGER_IDS = ["fraction", "whole-float", "bool", "numpy-float"]


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

    def test_replication_ceiling(self):
        # a Philox key keeps 48 bits of the replication index
        assert LimitSimSpec(0.7, replications=2**48).replications == 2**48
        with pytest.raises(ValueError, match=r"<= 2\*\*48"):
            LimitSimSpec(0.7, replications=2**48 + 1)

    def test_level_bounds(self):
        with pytest.raises(ValueError, match="levels"):
            LimitSimSpec(0.7, levels=(0.05, 1.5))
        # any iterable of levels is taken, and stored as a tuple
        for levels in ([0.1, 0.05], np.array([0.1, 0.05])):
            assert LimitSimSpec(0.7, levels=levels).levels == (0.1, 0.05)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize(
        "field, name",
        [("grid_size", "grid_size"),
         ("replications", r"replications \(reps\)"),
         ("master_seed", "master_seed")],
        ids=["grid_size", "replications", "master_seed"],
    )
    def test_integer_field_refuses_non_integer(self, field, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, "):
            LimitSimSpec(0.7, **{field: value})

    @pytest.mark.parametrize("kind", [np.int32, np.uint16, np.int64])
    def test_integer_fields_take_numpy_integers(self, kind):
        spec = LimitSimSpec(0.7, grid_size=kind(200), replications=kind(150),
                            master_seed=kind(3))
        plain = LimitSimSpec(0.7, grid_size=200, replications=150,
                             master_seed=3)
        assert (critical_values(spec).to_json()
                == critical_values(plain).to_json())

    def test_numpy_integer_fields_stored_as_int(self):
        spec = LimitSimSpec(0.7, grid_size=np.int32(200),
                            replications=np.uint16(150),
                            master_seed=np.int64(3))
        assert [type(value) for value in (
            spec.grid_size, spec.replications, spec.master_seed)] == [int] * 3


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



def traced_peak(tasks):
    """simulate_chunk's values of ``tasks`` and its peak of traced bytes."""
    simulate_chunk(tasks)  # FFT plans and other first-call state
    tracemalloc.start()
    try:
        return simulate_chunk(tasks), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSharedNormals:
    def test_many_hursts_hold_less_than_one_more_block(self):
        # one draw key, 16 H against 2: the larger group's peak exceeds
        # the smaller's by less than one sampler's block of the chunk
        rows, n = 500, 200
        tasks = tuple(
            SimChunk(hurst=0.55 + 0.025 * i, n=n,
                     k_range=Window().split_range(n),
                     master_seed=3, lo=0, hi=rows)
            for i in range(16)
        )
        values, peak16 = traced_peak(tasks)
        _, peak2 = traced_peak(tasks[:2])
        assert peak16 - peak2 < rows * n * 8
        for task, task_values in zip(tasks, values):
            alone = simulate_chunk((task,))[0]
            assert task_values.tobytes() == alone.tobytes()

    def test_each_draw_starts_without_the_previous_slab(self, monkeypatch):
        # one draw key, 16 H: 17 draws of 31-row slabs (about 0.8 MB
        # each); a draw may start beside one sampler's block of the
        # previous slab, not beside the whole slab
        rows, n, count = 500, 200, 16
        tasks = tuple(
            SimChunk(hurst=0.55 + 0.025 * i, n=n,
                     k_range=Window().split_range(n),
                     master_seed=3, lo=0, hi=rows)
            for i in range(count)
        )
        slab = rows // count  # simulate_chunk's rule for one n
        starts = []

        def traced_draw(*args, **kwargs):
            starts.append(tracemalloc.get_traced_memory()[0])
            return sample_fgn_block(*args, **kwargs)

        monkeypatch.setattr(limitdist, "sample_fgn_block", traced_draw)
        simulate_chunk(tasks)  # FFT plans and other first-call state
        starts.clear()
        tracemalloc.start()
        try:
            simulate_chunk(tasks)
        finally:
            tracemalloc.stop()
        assert len(starts) == 17
        excess = max(starts[1:]) - starts[0]
        assert excess < slab * count * n * 8 / 2

    @pytest.mark.parametrize("fields", [
        {},
        {"stream": STREAM_EXPERIMENT, "use_ranks": True, "shift": 1.0,
         "change_index": 50},
    ], ids=["limit", "shifted-ranks"])
    def test_a_repeated_task_gets_its_own_values_twice(self, fields):
        n = 100
        task = SimChunk(hurst=0.7, n=n, k_range=Window().split_range(n),
                        master_seed=5, lo=0, hi=200, **fields)
        alone = simulate_chunk((task,))[0]
        twice = simulate_chunk((task, task))
        assert len(twice) == 2
        for values in twice:
            assert values.tobytes() == alone.tobytes()


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
        # a level with more than 6 significant digits keeps its key
        table = critical_values(LimitSimSpec(
            0.7, master_seed=8, levels=(0.10, 0.05, 0.01, 0.123456789), **FAST
        ))
        again = CriticalValueTable.from_json(table.to_json())
        assert again == table
        assert again.critical_value(0.123456789) == table.quantiles[0.123456789]

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
            (lambda p: {**p, "reps": "many"}, "reps"),
            (lambda p: {**p, "reps": True}, "reps"),
            (lambda p: {**p, "grid": -3}, "grid"),
            (lambda p: {**p, "grid": 1000.0}, "grid"),
            (lambda p: {**p, "seed": 1.5}, "seed"),
            (lambda p: {**p, "seed": -1}, "seed"),
            (lambda p: {**p, "seed": 1 << 63}, "seed"),
            (lambda p: {**p, "reps": 2000.0}, "reps must be an integer"),
            (lambda p: {**p, "grid": True}, "grid must be an integer"),
            (lambda p: {**p, "seed": True}, "seed must be an integer"),
            (lambda p: {**p, "generator": 7}, "generator"),
            (lambda p: {**p, "quantiles": {"0.05": 8.4, "5e-2": 9.1}},
             "one level by two keys"),
            (lambda p: {**p, "window": [0.85, 0.15]},
             "critical-value table window"),
            (lambda p: {**p, "window": ["a", 0.5]},
             r"^critical-value table window must satisfy 0 < tau1 < tau2 < 1, "
             r"got \('a', 0\.5\)$"),
        ],
        ids=[
            "top-level-list", "missing-key", "string-hurst", "short-window",
            "string-window", "quantile-list", "no-quantiles", "null-quantile",
            "word-level", "level-above-one", "string-reps", "boolean-reps",
            "negative-grid", "float-grid", "float-seed", "negative-seed",
            "seed-above-range", "whole-float-reps", "boolean-grid",
            "boolean-seed", "number-generator", "level-spelled-twice",
            "reversed-window", "word-in-window",
        ],
    )
    def test_malformed_payload_raises_value_error(self, change, message):
        text = json.dumps(change(self.table_payload()))
        with pytest.raises(ValueError, match=message) as excinfo:
            CriticalValueTable.from_json(text)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    @pytest.mark.parametrize(
        "field, key",
        [("replications", "reps"), ("grid_size", "grid"),
         ("master_seed", "seed")],
    )
    def test_integer_field_refuses_non_integer(self, field, key, value):
        with pytest.raises(ValueError, match=(
            rf"^critical-value table {key} must be an integer, got "
        )):
            CriticalValueTable(hurst=0.7, window=Window(),
                               quantiles={0.05: 8.4}, **{field: value})

    def test_non_finite_quantile_rejected(self):
        payload = self.table_payload()
        payload["quantiles"]["0.05"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            CriticalValueTable.from_json(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(ValueError, match="not JSON"):
            CriticalValueTable.from_json("{not json")

    def test_repeated_level_key_rejected(self):
        text = json.dumps(self.table_payload()).replace(
            '"0.05": ', '"0.05": -8.4, "0.05": ', 1)
        with pytest.raises(ValueError, match="repeats key '0.05'"):
            CriticalValueTable.from_json(text)

    def test_window_must_be_a_test_window(self):
        # to_json and check_matches read the window's tau1 and tau2
        with pytest.raises(ValueError, match=(
            r"^critical-value table window must be a TestWindow, "
            r"got \(0.15, 0.85\)$"
        )):
            CriticalValueTable(hurst=0.7, window=(0.15, 0.85),
                               quantiles={0.05: 8.4})

    @pytest.mark.parametrize("value", [-8.4, 0.0, -0.0])
    def test_non_positive_critical_value_rejected(self, value):
        # T_n >= 0: such a value would reject every series
        with pytest.raises(ValueError, match="must be positive"):
            CriticalValueTable(hurst=0.7, window=Window(),
                               quantiles={0.05: value, 0.1: 7.0})

    @pytest.mark.parametrize("level", [0.1, 0.05, 0.01])
    def test_values_rising_with_level_rejected(self, level):
        # upper quantiles of one sample cannot fall as the level falls;
        # a 0.5 at 0.01 would reject most null series there
        with pytest.raises(ValueError, match=(
            r"^critical-value table values must not fall as the level falls, "
            r"got \{0.01: 0.5, 0.05: 8.4, 0.1: 7.0\}$"
        )):
            CriticalValueTable(
                hurst=0.7, window=Window(),
                quantiles={0.1: 7.0, 0.05: 8.4, 0.01: 0.5},
            ).critical_value(level)

    def test_table_takes_numpy_integer_spec(self):
        # a spec whose counts are numpy integers makes a valid table
        spec = LimitSimSpec(0.7, replications=np.int64(200),
                            master_seed=np.int64(9))
        values = np.linspace(1.0, 3.0, 200)
        table = limitdist.critical_value_table(spec, values)
        assert table.replications == 200 and table.master_seed == 9
        assert table.critical_value(0.05) == upper_quantile(values, 0.05)
        assert CriticalValueTable.from_json(table.to_json()) == table

    def test_table_of_numpy_floats_writes_json(self):
        table = CriticalValueTable(
            hurst=np.float32(0.7),
            window=Window(np.float32(0.2), np.float64(0.8)),
            quantiles={np.float64(0.05): np.float32(8.4)},
            replications=np.int32(200),
            grid_size=np.uint16(100),
            master_seed=np.int64(9),
        )
        assert [type(value) for value in (
            table.replications, table.grid_size, table.master_seed)] == [int] * 3
        payload = json.loads(table.to_json())
        assert payload["hurst"] == float(np.float32(0.7))
        assert payload["quantiles"] == {"0.05": float(np.float32(8.4))}
        assert CriticalValueTable.from_json(table.to_json()) == table


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_spec_rejects_seed_outside_range(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            LimitSimSpec(0.7, master_seed=seed, **FAST)

    def test_fractional_or_boolean_seed_is_refused(self):
        # a float or bool seed must not run as its integer part (here
        # seeds 1, 1, 3 and 2) under another seed's name
        sampler = build_sampler(FgnParams(0.7, 100))
        for make in (
            lambda: LimitSimSpec(0.7, master_seed=1.5, **FAST),
            lambda: LimitSimSpec(0.7, master_seed=True, **FAST),
            lambda: ExperimentSpec(kind="size", hurst=0.7, n=100,
                                   replications=10, master_seed=3.7),
            lambda: sample_fgn(sampler, 2.9),
        ):
            with pytest.raises(ValueError,
                               match="^master_seed must be an integer, got "):
                make()

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
