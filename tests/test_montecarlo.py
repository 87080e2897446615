"""Tests for the Monte Carlo experiment harness."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from lrdcp import (
    CSV_COLUMNS,
    ExperimentSpec,
    LimitSimSpec,
    critical_values,
    reproduce_tables,
    run_experiment,
    run_experiments,
    simulate_statistics,
)
from lrdcp import _parallel, limitdist, montecarlo
from lrdcp.sntest import TestWindow as Window  # alias: keep pytest from collecting it


@pytest.fixture(scope="module")
def cv_table():
    # coarse but unbiased table; property tests only need a stable threshold
    return critical_values(
        LimitSimSpec(0.7, grid_size=400, replications=3000, master_seed=11)
    )


def binomial_se(p, reps):
    return np.sqrt(p * (1 - p) / reps)


class TestSpecValidation:
    def test_kind_must_be_known(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(kind="sizing", hurst=0.7, n=100, replications=10)

    def test_size_requires_zero_delta(self):
        with pytest.raises(ValueError, match="delta = 0"):
            ExperimentSpec(kind="size", hurst=0.7, n=100, replications=10, delta=1.0)

    def test_power_requires_nonzero_delta(self):
        with pytest.raises(ValueError, match="delta != 0"):
            ExperimentSpec(kind="power", hurst=0.7, n=100, replications=10)

    def test_local_alternative_rejects_fixed_delta(self):
        with pytest.raises(ValueError, match="take c"):
            ExperimentSpec(
                kind="local_alternative", hurst=0.7, n=100, replications=10,
                delta=1.0,
            )

    def test_bounds(self):
        with pytest.raises(ValueError, match="tau"):
            ExperimentSpec(kind="size", hurst=0.7, n=100, replications=10, tau=1.2)
        with pytest.raises(ValueError, match="level"):
            ExperimentSpec(kind="size", hurst=0.7, n=100, replications=10, level=0.0)
        with pytest.raises(ValueError, match="hurst"):
            ExperimentSpec(kind="size", hurst=1.7, n=100, replications=10)

    @pytest.mark.parametrize("hurst", [0.5, 0.3])
    def test_hurst_outside_long_range_dependence(self, hurst):
        with pytest.raises(ValueError, match=r"hurst must lie in \(0\.5, 1\)"):
            ExperimentSpec(kind="size", hurst=hurst, n=100, replications=10)

    @pytest.mark.parametrize(
        "kind, shift",
        [
            ("power", {"delta": math.nan}),
            ("power", {"delta": math.inf}),
            ("consistency", {"delta": -math.inf}),
            ("local_alternative", {"c": math.nan}),
            ("local_alternative", {"c": math.inf}),
        ],
    )
    def test_non_finite_shift(self, kind, shift):
        with pytest.raises(ValueError, match="must be finite"):
            ExperimentSpec(kind=kind, hurst=0.7, n=100, replications=10,
                           **shift)

    @pytest.mark.parametrize(
        "kind, delta", [("size", 0.0), ("power", 1.0), ("consistency", 1.0)]
    )
    def test_c_only_for_local_alternative(self, kind, delta):
        with pytest.raises(ValueError, match=f"{kind} experiments must have c = 0"):
            ExperimentSpec(kind=kind, hurst=0.7, n=100, replications=10,
                           delta=delta, c=3.0)

    @pytest.mark.parametrize(
        "kind, shift",
        [("power", {"delta": 5.0}), ("consistency", {"delta": -1.0}),
         ("local_alternative", {"c": 2.0})],
    )
    def test_shift_must_leave_the_first_observation(self, kind, shift):
        # floor(10 * 0.05) = 0 would shift the whole series: the null
        with pytest.raises(
            ValueError,
            match=(rf"^{kind} experiments need floor\(n \* tau\) >= 1, "
                   rf"got n=10, tau=0.05$"),
        ):
            ExperimentSpec(kind=kind, hurst=0.7, n=10, replications=10,
                           tau=0.05, **shift)
        spec = ExperimentSpec(kind=kind, hurst=0.7, n=20, replications=10,
                              tau=0.05, **shift)
        assert math.floor(spec.n * spec.tau) == 1

    def test_size_takes_any_tau(self):
        spec = ExperimentSpec(kind="size", hurst=0.7, n=10, replications=10,
                              tau=0.05)
        assert spec.tau == 0.05

    def test_replication_ceiling(self):
        # a Philox key keeps 48 bits of the replication index
        spec = ExperimentSpec(kind="size", hurst=0.7, n=100,
                              replications=2**48)
        assert spec.replications == 2**48
        with pytest.raises(ValueError, match=r"at most 2\*\*48"):
            dataclasses.replace(spec, replications=2**48 + 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_seed_outside_range(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentSpec(
                kind="size", hurst=0.7, n=100, replications=10,
                master_seed=seed,
            )

    @pytest.mark.parametrize(
        "value", [1.5, 100.0, True, np.float64(100)],
        ids=["fraction", "whole-float", "bool", "numpy-float"],
    )
    @pytest.mark.parametrize("field", ["n", "replications", "master_seed"])
    def test_integer_field_refuses_non_integer(self, field, value):
        fields = dict(kind="size", hurst=0.7, n=100, replications=10)
        with pytest.raises(ValueError,
                           match=rf"^{field} must be an integer, got "):
            ExperimentSpec(**{**fields, field: value})

    @pytest.mark.parametrize("kind", [np.int32, np.uint16, np.int64])
    def test_integer_fields_take_numpy_integers(self, kind):
        spec = ExperimentSpec(kind="size", hurst=0.7, n=kind(50),
                              replications=kind(20), master_seed=kind(2))
        plain = ExperimentSpec(kind="size", hurst=0.7, n=50, replications=20,
                               master_seed=2)
        assert (simulate_statistics(spec).tobytes()
                == simulate_statistics(plain).tobytes())

    def test_numpy_integer_fields_give_a_json_row(self, cv_table):
        spec = ExperimentSpec("size", 0.7, np.int32(50), np.int32(200),
                              master_seed=np.int64(4))
        assert [type(value) for value in (
            spec.n, spec.replications, spec.master_seed)] == [int] * 3
        row = run_experiment(spec, cv_table).to_csv_row()
        assert json.loads(json.dumps(row))["n"] == 50

    def test_shift_rule(self):
        power = ExperimentSpec(
            kind="power", hurst=0.7, n=100, replications=10, delta=1.5
        )
        assert power.shift == 1.5
        local = ExperimentSpec(
            kind="local_alternative", hurst=0.7, n=100, replications=10, c=5.0
        )
        assert local.shift == pytest.approx(5.0 * 100 ** (-0.3))
        null = ExperimentSpec(kind="size", hurst=0.7, n=100, replications=10)
        assert null.shift == 0.0


class TestRunExperiment:
    def test_size_close_to_level(self, cv_table):
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=100, replications=1500, master_seed=0
        )
        result = run_experiment(spec, cv_table)
        assert 0.02 <= result.rejection_rate <= 0.09

    def test_rate_is_count_over_reps(self, cv_table):
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=80, replications=400, master_seed=1
        )
        result = run_experiment(spec, cv_table)
        assert result.rejection_rate == result.rejection_count / 400
        assert result.critical_value_used == cv_table.critical_value(0.05)
        assert result.seconds >= 0.0

    def test_deterministic_given_seed(self, cv_table):
        spec = ExperimentSpec(
            kind="power", hurst=0.7, n=100, replications=300, delta=1.0,
            master_seed=3,
        )
        first = run_experiment(spec, cv_table)
        second = run_experiment(spec, cv_table)
        assert first.rejection_count == second.rejection_count
        assert first.mean_statistic == second.mean_statistic

    def test_seed_coherence_within_binomial_noise(self, cv_table):
        rates = []
        for seed in (101, 202, 303):
            spec = ExperimentSpec(
                kind="size", hurst=0.7, n=100, replications=1000,
                master_seed=seed,
            )
            rates.append(run_experiment(spec, cv_table).rejection_rate)
        spread = max(rates) - min(rates)
        assert spread <= 4 * binomial_se(0.05, 1000) + 1e-12

    def test_power_grows_with_shift(self, cv_table):
        rates = []
        for delta in (0.5, 1.0, 2.0):
            spec = ExperimentSpec(
                kind="power", hurst=0.7, n=100, replications=800, delta=delta,
                master_seed=7,
            )
            rates.append(run_experiment(spec, cv_table).rejection_rate)
        assert rates[0] < rates[1] <= rates[2]

    def test_midpoint_change_is_easiest(self, cv_table):
        reps = 1500
        rates = {}
        for tau in (0.5, 0.25):
            spec = ExperimentSpec(
                kind="power", hurst=0.7, n=100, replications=reps, delta=1.0,
                tau=tau, master_seed=9,
            )
            rates[tau] = run_experiment(spec, cv_table).rejection_rate
        slack = 2 * binomial_se(0.5, reps)
        assert rates[0.5] >= rates[0.25] - slack

    def test_mismatched_table_rejected(self, cv_table):
        spec = ExperimentSpec(kind="size", hurst=0.8, n=100, replications=100)
        with pytest.raises(ValueError, match="hurst"):
            run_experiment(spec, cv_table)
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=100, replications=100,
            window=Window(0.2, 0.8),
        )
        with pytest.raises(ValueError, match="window"):
            run_experiment(spec, cv_table)

    def test_csv_row_columns(self, cv_table):
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=80, replications=200, master_seed=2
        )
        row = run_experiment(spec, cv_table).to_csv_row()
        assert list(row) == list(CSV_COLUMNS)
        assert row["kind"] == "size"
        assert row["reps"] == 200


class TestParallelDeterminism:
    def test_worker_count_does_not_change_results(self, cv_table, monkeypatch):
        # two chunks of work so the pool path actually engages
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=100, replications=600, master_seed=5
        )
        monkeypatch.setenv("LRD_CP_THREADS", "1")
        serial = simulate_statistics(spec)
        monkeypatch.setenv("LRD_CP_THREADS", "2")
        pooled = simulate_statistics(spec)
        assert np.array_equal(serial, pooled)

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "many")
        spec = ExperimentSpec(
            kind="size", hurst=0.7, n=50, replications=100, master_seed=5
        )
        with pytest.raises(ValueError, match="LRD_CP_THREADS"):
            simulate_statistics(spec)


class TestLocalAlternative:
    def test_zero_scale_behaves_like_null(self, cv_table):
        spec = ExperimentSpec(
            kind="local_alternative", hurst=0.7, n=100, replications=1000,
            c=0.0, master_seed=13,
        )
        rate = run_experiment(spec, cv_table).rejection_rate
        assert 0.02 <= rate <= 0.09

    def test_huge_scale_always_rejects(self, cv_table):
        spec = ExperimentSpec(
            kind="local_alternative", hurst=0.7, n=100, replications=400,
            c=50.0, master_seed=13,
        )
        assert run_experiment(spec, cv_table).rejection_rate >= 0.95

    def test_sweep_reports_each_length(self, cv_table):
        results = [
            run_experiment(
                ExperimentSpec(
                    kind="local_alternative", hurst=0.7, n=n, replications=200,
                    c=5.0, tau=0.5, level=0.05, master_seed=17,
                ),
                cv_table,
            )
            for n in (100, 200)
        ]
        assert [r.spec.n for r in results] == [100, 200]
        for r in results:
            assert r.spec.shift == pytest.approx(5.0 * r.spec.n ** (-0.3))


class TestConsistency:
    def test_statistic_and_power_grow_with_n(self, cv_table):
        results = [
            run_experiment(
                ExperimentSpec(
                    kind="consistency", hurst=0.7, n=n, replications=300,
                    delta=1.0, tau=0.5, level=0.05, master_seed=19,
                ),
                cv_table,
            )
            for n in (100, 400)
        ]
        medians = [r.median_statistic for r in results]
        rates = [r.rejection_rate for r in results]
        assert medians[1] > medians[0]
        assert rates[1] >= rates[0] - 0.03


class TestTableGrids:
    def test_one_simulation_serves_both_levels(self, cv_table):
        # the two reported levels reuse identical statistic draws
        spec10 = ExperimentSpec(
            kind="power", hurst=0.7, n=100, replications=400, delta=1.0,
            level=0.10, master_seed=23,
        )
        spec05 = dataclasses.replace(spec10, level=0.05)
        r10 = run_experiment(spec10, cv_table)
        r05 = run_experiment(spec05, cv_table)
        assert r10.mean_statistic == r05.mean_statistic
        assert r10.rejection_rate >= r05.rejection_rate


def counting_map(maps):
    """``_parallel.chunked_map`` that appends each call's task count."""
    chunked_map = _parallel.chunked_map

    def counted(func, tasks):
        maps.append(len(tasks))
        return chunked_map(func, tasks)

    return counted


class TestRunExperiments:
    def test_matches_one_run_per_spec(self, cv_table, monkeypatch):
        specs = [
            ExperimentSpec(
                kind="power", hurst=0.7, n=n, replications=700, delta=1.0,
                level=level, master_seed=29,
            )
            for n, level in ((60, 0.05), (90, 0.10))
        ]
        single = [run_experiment(spec, cv_table) for spec in specs]
        maps = []
        monkeypatch.setattr(_parallel, "chunked_map", counting_map(maps))
        batched = run_experiments(specs, cv_table)
        assert maps == [4]
        for one, many in zip(single, batched):
            assert many.spec == one.spec
            assert many.rejection_count == one.rejection_count
            assert many.mean_statistic == one.mean_statistic
            assert many.median_statistic == one.median_statistic
            assert many.critical_value_used == one.critical_value_used

    def test_mismatched_table_rejected_before_simulating(self, cv_table,
                                                         monkeypatch):
        monkeypatch.setattr(_parallel, "chunked_map", None)
        specs = [
            ExperimentSpec(kind="size", hurst=0.7, n=100, replications=100),
            ExperimentSpec(kind="size", hurst=0.8, n=100, replications=100),
        ]
        with pytest.raises(ValueError, match="requested hurst=0.8"):
            run_experiments(specs, cv_table)


SHARED_SPECS = (
    ExperimentSpec(kind="size", hurst=0.7, n=80, replications=1200,
                   master_seed=8),
    ExperimentSpec(kind="power", hurst=0.7, n=80, replications=1200,
                   delta=1.0, master_seed=8),
    ExperimentSpec(kind="power", hurst=0.7, n=80, replications=700,
                   delta=2.0, tau=0.25, master_seed=8),
    ExperimentSpec(kind="local_alternative", hurst=0.7, n=80,
                   replications=1200, c=3.0, master_seed=8),
)


class TestSharedDraws:
    @pytest.fixture(scope="class")
    def standalone(self):
        return [simulate_statistics(spec) for spec in SHARED_SPECS]

    @pytest.mark.parametrize("order", ["unshifted_first", "unshifted_last"])
    def test_each_chunk_drawn_once_for_every_cell(self, order, standalone,
                                                  monkeypatch):
        index = list(range(len(SHARED_SPECS)))
        if order == "unshifted_last":
            # the size cell's task comes last in each group, so the
            # shifted cells before it score copies of the block
            index = index[1:] + index[:1]
        drawn = []
        sample_fgn_block = limitdist.sample_fgn_block

        def counting_draw(sampler, master_seed, replications, stream):
            drawn.append((replications.start, replications.stop))
            return sample_fgn_block(sampler, master_seed, replications,
                                    stream)

        monkeypatch.setenv("LRD_CP_THREADS", "1")
        monkeypatch.setattr(limitdist, "sample_fgn_block", counting_draw)
        cells = limitdist.simulate_cells(
            [montecarlo.experiment_tasks(SHARED_SPECS[i]) for i in index]
        )
        # the 700-replication cell's last chunk, [500, 700), reads the
        # leading rows of the longer cells' [500, 1000)
        assert sorted(drawn) == [(0, 500), (500, 1000), (1000, 1200)]
        for i, values in zip(index, cells):
            assert values.tobytes() == standalone[i].tobytes()


# every replication count at its floor of 200
TABLES_SCALE = 0.002
TABLES_REPS = 200
TABLES_SEED = 4


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """CSV text and chunked-map count of reproduce_tables per worker cap."""
    runs = {}
    for threads in ("1", "2"):
        maps = []
        out = tmp_path_factory.mktemp(f"tables{threads}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("LRD_CP_THREADS", threads)
            patch.setattr(_parallel, "chunked_map", counting_map(maps))
            paths = reproduce_tables(
                str(out), scale=TABLES_SCALE, master_seed=TABLES_SEED
            )
        text = {}
        for name, path in paths.items():
            if name != "manifest":
                with open(path, newline="") as handle:
                    text[name] = handle.read()
        runs[threads] = text, maps
    return runs


def _csv_text(columns, rows):
    handle = io.StringIO()
    writer = csv.writer(handle)
    writer.writerow(columns)
    writer.writerows(rows)
    return handle.getvalue()


def per_cell_tables():
    """The four tables built one cell at a time, from the public API."""
    tables = {h: critical_values(LimitSimSpec(
        h, replications=TABLES_REPS, master_seed=TABLES_SEED))
        for h in montecarlo.TABLE_HURSTS}

    def rate(values, hurst, level):
        cv = tables[hurst].critical_value(level)
        return int((values > cv).sum()) / TABLES_REPS

    text = {"table1": _csv_text(
        ("hurst", "level", "critical_value"),
        [(h, level, table.critical_value(level))
         for h, table in tables.items() for level in table.quantiles],
    )}
    rows = []
    for h in montecarlo.TABLE_HURSTS:
        for n in montecarlo.TABLE_SIZE_NS:
            values = simulate_statistics(ExperimentSpec(
                kind="size", hurst=h, n=n, replications=TABLES_REPS,
                master_seed=TABLES_SEED))
            rows.append((h, n, 0.05, TABLES_REPS, rate(values, h, 0.05)))
    text["table2"] = _csv_text(
        ("hurst", "n", "level", "reps", "rejection_rate"), rows
    )
    for name, tau in (("table3", 0.5), ("table4", 0.25)):
        rows = []
        for h in montecarlo.TABLE_HURSTS:
            for n in montecarlo.TABLE_POWER_NS:
                for delta in montecarlo.TABLE_DELTAS:
                    values = simulate_statistics(ExperimentSpec(
                        kind="power", hurst=h, n=n, replications=TABLES_REPS,
                        delta=delta, tau=tau, master_seed=TABLES_SEED,
                    ))
                    rows += [(h, n, delta, tau, level, TABLES_REPS,
                              rate(values, h, level))
                             for level in montecarlo.TABLE_POWER_LEVELS]
        text[name] = _csv_text(
            ("hurst", "n", "delta", "tau", "level", "reps", "rejection_rate"),
            rows,
        )
    return text


class TestReproduceTables:
    def test_same_bytes_for_any_worker_count(self, reproduced):
        assert reproduced["1"][0] == reproduced["2"][0]

    def test_one_map_over_every_chunk(self, reproduced):
        # 4 limit cells and 20 size cells of one chunk each; the 48 power
        # cells share the draw keys of the size cells at their (H, n), and
        # every H shares the keys of its embedding size: one limit key
        # (M = 1024) and five size keys (M = 16, 64, 128, 512, 1024)
        for _, maps in reproduced.values():
            assert maps == [6]

    def test_equals_per_cell_reference(self, reproduced):
        assert reproduced["2"][0] == per_cell_tables()


class TestTableWork:
    def test_level_rows_share_their_chunks(self, tmp_path, monkeypatch):
        # 72 scored cells (4 limit, 20 size, 48 power) on 6 draw keys
        # (1 limit, 5 size) of 200 replications each: splitting each
        # power cell into one row per level scores no chunk twice, and
        # the four H of one embedding size draw their normals once
        scored, drawn = [], []
        kernel = limitdist.batch_tn_from_values
        sample_fgn_block = limitdist.sample_fgn_block

        def counting_kernel(series, *args, **kwargs):
            scored.append(len(series))
            return kernel(series, *args, **kwargs)

        def counting_draw(sampler, master_seed, replications, stream):
            drawn.append(len(replications))
            return sample_fgn_block(sampler, master_seed, replications,
                                    stream)

        monkeypatch.setenv("LRD_CP_THREADS", "1")
        monkeypatch.setattr(limitdist, "batch_tn_from_values", counting_kernel)
        monkeypatch.setattr(limitdist, "sample_fgn_block", counting_draw)
        reproduce_tables(str(tmp_path), scale=TABLES_SCALE,
                         master_seed=TABLES_SEED)
        assert sum(scored) == 72 * TABLES_REPS == 14_400
        assert sum(drawn) == 6 * TABLES_REPS == 1_200

    def test_replication_counts(self):
        assert montecarlo.table_replications(0.1) == {
            "critical_values": 1000, "size": 1000, "power": 500,
        }
        assert set(montecarlo.table_replications(TABLES_SCALE).values()) == {
            TABLES_REPS
        }
        # above 2**48 / 10**4 the limit and size counts pass 2**48
        for scale in (2.815e10, 1e200, 1e305, math.inf):
            with pytest.raises(ValueError, match=r"at most 2\*\*48"):
                montecarlo.table_replications(scale)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, -math.inf, math.nan])
    def test_scale_not_positive_rejected_before_any_work(self, scale,
                                                         tmp_path):
        out = tmp_path / "tables"
        with pytest.raises(ValueError,
                           match=r"^--scale must be positive and finite, "
                                 rf"got {scale}$"):
            reproduce_tables(str(out), scale=scale)
        assert not out.exists()


class TestMedian:
    @pytest.mark.parametrize("values", [
        [3.0],
        [2.0, 1.0],
        [5.0, 1.0, 4.0, 1.0, 5.0],
        [0.5, 2.0, 2.0, 0.5],
        [1.0, math.inf, 0.25],
        [math.inf, 1.0, math.inf, 0.0],
        [math.inf, math.inf],
        [0.1, 0.7],
    ])
    def test_equals_numpy_median_bit_for_bit(self, values):
        values = np.array(values)
        assert (montecarlo._median(values).tobytes()
                == np.median(values).tobytes())

    @pytest.mark.parametrize("size", [199, 200, 500, 501])
    def test_equals_numpy_median_on_draws(self, size):
        values = np.random.default_rng(size).gamma(2.0, size=size)
        values[::7] = values[3]  # ties
        assert (montecarlo._median(values).tobytes()
                == np.median(values).tobytes())
