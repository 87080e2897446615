"""Tests for exact fractional Gaussian noise sampling."""

import re

import numpy as np
import pytest
from scipy import stats

import lrdcp.fgn as fgn
from lrdcp import _parallel
from lrdcp import FgnParams, build_sampler, fgn_autocovariance
from lrdcp import sample_fgn, sample_fgn_block
from lrdcp.limitdist import CriticalValueTable, LimitSimSpec
from lrdcp.montecarlo import ExperimentSpec, table_replications
from lrdcp.sntest import TestWindow as Window  # alias: keep pytest from collecting it


class TestAutocovariance:
    def test_white_noise_has_no_lag_one_covariance(self):
        assert fgn_autocovariance(0.5, 1) == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance_at_lag_zero(self):
        for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
            assert fgn_autocovariance(hurst, 0) == pytest.approx(1.0)

    def test_closed_form_lag_one(self):
        # gamma(1) = (2^{2H} - 2) / 2
        assert fgn_autocovariance(0.7, 1) == pytest.approx(0.5 * (2**1.4 - 2))
        assert fgn_autocovariance(0.7, 1) == pytest.approx(0.319508, abs=1e-6)
        assert fgn_autocovariance(0.8, 1) == pytest.approx(0.515717, abs=1e-6)

    def test_vector_lags(self):
        lags = np.arange(6)
        gam = fgn_autocovariance(0.8, lags)
        assert gam.shape == (6,)
        assert gam[0] == pytest.approx(1.0)
        # positive dependence decays but stays positive for H > 1/2
        assert np.all(gam > 0)
        assert np.all(np.diff(gam[1:]) < 0)

    def test_negative_lags_fold(self):
        assert fgn_autocovariance(0.7, -3) == fgn_autocovariance(0.7, 3)

    def test_hurst_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="hurst"):
                fgn_autocovariance(bad, 1)

    def test_tail_decay_matches_long_memory_rate(self):
        # gamma(k) ~ H(2H-1) k^{2H-2}
        hurst = 0.8
        k = np.array([200.0, 400.0])
        gam = fgn_autocovariance(hurst, k)
        expected = hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
        assert gam == pytest.approx(expected, rel=1e-3)


# values an integer field (count, seed or stream) must refuse
NOT_INTEGERS = [1.5, 100.0, True, np.float64(100)]
NOT_INTEGER_IDS = ["fraction", "whole-float", "bool", "numpy-float"]


# each real-valued field, made with one value in its place
REAL_FIELDS = {
    "fgn_autocovariance-hurst": lambda v: fgn_autocovariance(v, 1),
    "FgnParams-hurst": lambda v: FgnParams(v, 10),
    "TestWindow-tau1": lambda v: Window(v, 0.5),
    "TestWindow-tau2": lambda v: Window(0.15, v),
    "LimitSimSpec-hurst": lambda v: LimitSimSpec(v),
    "LimitSimSpec-level": lambda v: LimitSimSpec(0.7, levels=(0.05, v)),
    "ExperimentSpec-hurst": lambda v: ExperimentSpec("size", v, 100, 100),
    "ExperimentSpec-tau": lambda v: ExperimentSpec("size", 0.7, 100, 100,
                                                   tau=v),
    "ExperimentSpec-level": lambda v: ExperimentSpec("size", 0.7, 100, 100,
                                                     level=v),
    "ExperimentSpec-delta": lambda v: ExperimentSpec("power", 0.7, 100, 100,
                                                     delta=v),
    "ExperimentSpec-c": lambda v: ExperimentSpec("local_alternative", 0.7,
                                                 100, 100, c=v),
    "CriticalValueTable-hurst": lambda v: CriticalValueTable(
        v, Window(), {0.05: 8.4}),
    "CriticalValueTable-level": lambda v: CriticalValueTable(
        0.7, Window(), {v: 8.4}),
    "CriticalValueTable-value": lambda v: CriticalValueTable(
        0.7, Window(), {0.05: v}),
    "table_replications-scale": table_replications,
}


@pytest.mark.parametrize("value", ["0.7", None, True],
                         ids=["string", "none", "bool"])
@pytest.mark.parametrize("make", REAL_FIELDS.values(), ids=REAL_FIELDS)
def test_real_field_refuses_non_number(make, value):
    # one ValueError that shows the value, never a TypeError from a
    # comparison, and a bool is not taken for 1
    with pytest.raises(ValueError) as excinfo:
        make(value)
    assert repr(value) in str(excinfo.value)
    assert "\n" not in str(excinfo.value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LimitSimSpec(0.7, levels=None), "levels must lie strictly "
         "in (0, 1), got None"),
        (lambda: LimitSimSpec(0.7, levels=0.05), "levels must lie strictly "
         "in (0, 1), got 0.05"),
        (lambda: LimitSimSpec(0.7, window=(0.1, 0.9)),
         "window must be a TestWindow, got (0.1, 0.9)"),
        (lambda: ExperimentSpec("size", 0.7, 100, 100, window=(0.1, 0.9)),
         "window must be a TestWindow, got (0.1, 0.9)"),
    ],
    ids=["levels-none", "levels-number", "LimitSimSpec-window",
         "ExperimentSpec-window"],
)
def test_field_of_the_wrong_kind_is_refused(make, message):
    # one ValueError, never a TypeError or AttributeError from later use
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


class TestBuildSampler:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="hurst"):
            FgnParams(1.2, 100)
        with pytest.raises(ValueError, match="length"):
            FgnParams(0.7, 1)

    @pytest.mark.parametrize("length", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    def test_length_must_be_an_integer(self, length):
        with pytest.raises(ValueError,
                           match=r"^length must be an integer, got "):
            FgnParams(0.7, length)

    @pytest.mark.parametrize("kind", [np.int32, np.uint16, np.int64])
    def test_numpy_integer_length(self, kind):
        weights = build_sampler(FgnParams(0.7, kind(100))).spectral_weights
        expected = build_sampler(FgnParams(0.7, 100)).spectral_weights
        assert weights.tobytes() == expected.tobytes()

    def test_numpy_integer_length_stored_as_int(self):
        assert type(FgnParams(0.7, np.int32(100)).length) is int

    def test_white_noise_weights_are_flat(self):
        sampler = build_sampler(FgnParams(0.5, 8))
        assert sampler.spectral_weights == pytest.approx(
            np.ones(2 * sampler.embedding_size)
        )

    def test_embedding_size_is_next_power_of_two(self):
        assert build_sampler(FgnParams(0.7, 100)).embedding_size == 128
        assert build_sampler(FgnParams(0.7, 128)).embedding_size == 128
        assert build_sampler(FgnParams(0.7, 129)).embedding_size == 256

    def test_first_embedding_holds_on_a_fine_hurst_grid(self):
        # the tolerance check never rejects fGn's own embedding of size 2M
        for n in (2, 3, 100, 129, 1000, 1025, 4096, 20000):
            m = 1 << (n - 1).bit_length()
            for k in range(1, 100):
                sampler = build_sampler(FgnParams(k / 100, n))
                assert sampler.embedding_size == m, (k, n)

    def test_weights_nonnegative(self):
        for hurst in (0.6, 0.7, 0.8, 0.9):
            sampler = build_sampler(FgnParams(hurst, 100))
            assert sampler.spectral_weights.min() > 0

    def test_trace_identity(self):
        # DFT at frequency zero appears once: sum of eigenvalues = 2M gamma(0)
        sampler = build_sampler(FgnParams(0.9, 1000))
        two_m = 2 * sampler.embedding_size
        assert sampler.spectral_weights.sum() == pytest.approx(two_m)

    def test_indefinite_covariance_raises(self, monkeypatch):
        def not_psd(hurst, lags):
            k = np.asarray(lags, dtype=np.float64)
            return np.where(k == 0, 1.0, np.where(k == 1, 5.0, 0.0))

        monkeypatch.setattr(fgn, "fgn_autocovariance", not_psd)
        with pytest.raises(RuntimeError, match="embedding"):
            build_sampler(FgnParams(0.7, 64))


class TestSampling:
    def test_deterministic_in_seed(self):
        sampler = build_sampler(FgnParams(0.7, 200))
        assert np.array_equal(sample_fgn(sampler, 42), sample_fgn(sampler, 42))
        assert not np.array_equal(sample_fgn(sampler, 42), sample_fgn(sampler, 43))

    def test_block_rows_independent_of_batching(self):
        # replication r drawn alone equals the same row of a bigger block
        sampler = build_sampler(FgnParams(0.8, 150))
        block = sample_fgn_block(sampler, 7, range(8))
        for rep in (0, 3, 7):
            alone = sample_fgn_block(sampler, 7, [rep])[0]
            assert np.array_equal(alone, block[rep])

    def test_single_draw_is_replication_zero(self):
        sampler = build_sampler(FgnParams(0.8, 150))
        assert np.array_equal(
            sample_fgn(sampler, 11), sample_fgn_block(sampler, 11, [0])[0]
        )

    def test_streams_give_distinct_draws(self):
        sampler = build_sampler(FgnParams(0.8, 64))
        a = sample_fgn_block(sampler, 5, [0], stream=fgn.STREAM_LIMIT)
        b = sample_fgn_block(sampler, 5, [0], stream=fgn.STREAM_EXPERIMENT)
        assert not np.array_equal(a, b)

    def test_moments_white_noise(self):
        n = 100_000
        x = sample_fgn(build_sampler(FgnParams(0.5, n)), 123)
        assert abs(x.mean()) < 4.0 / np.sqrt(n)
        assert x.var() == pytest.approx(1.0, abs=0.02)

    def test_lag_one_autocovariance(self):
        n = 100_000
        x = sample_fgn(build_sampler(FgnParams(0.8, n)), 9)
        lag1 = np.mean(x[:-1] * x[1:])
        assert lag1 == pytest.approx(fgn_autocovariance(0.8, 1), abs=0.02)

    def test_white_noise_is_standard_normal(self):
        x = sample_fgn(build_sampler(FgnParams(0.5, 100_000)), 31)
        distance = stats.kstest(x, "norm").statistic
        assert distance < 0.01


def reference_block(sampler, master_seed, replications, stream):
    """Per-replication Philox draws fed through the original amplitude loop."""
    m = sampler.embedding_size
    weights = np.sqrt(sampler.spectral_weights)
    amps = np.empty((len(replications), m + 1), dtype=np.complex128)
    root_2m = np.sqrt(2.0 * m)
    root_m = np.sqrt(float(m))
    for i, rep in enumerate(replications):
        key = [master_seed, (stream << 48) | rep]
        w = np.random.Generator(np.random.Philox(key=key)).standard_normal(2 * m)
        amps[i, 0] = root_2m * weights[0] * w[0]
        amps[i, m] = root_2m * weights[m] * w[1]
        amps[i, 1:m] = root_m * weights[1:m] * (w[2 : m + 1] + 1j * w[m + 1 :])
    return np.fft.irfft(amps, 2 * m, axis=-1)[:, : sampler.params.length]


class TestBlockMatchesPerReplicationReference:
    @pytest.mark.parametrize("n", [10, 500, 1000, 20_000])
    @pytest.mark.parametrize(
        "stream", [fgn.STREAM_LIMIT, fgn.STREAM_EXPERIMENT]
    )
    def test_rows_equal_reference_bit_for_bit(self, n, stream):
        sampler = build_sampler(FgnParams(0.7, n))
        reps = [0, 1, 7, 499, (1 << 40) + 3]
        block = sample_fgn_block(sampler, 12345, reps, stream=stream)
        expected = reference_block(sampler, 12345, reps, stream)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, (1 << 62) + 5, (1 << 63) - 1])
    def test_direct_stream_across_seed_words(self, seed):
        sampler = build_sampler(FgnParams(0.6, 300))
        block = sample_fgn_block(sampler, seed, range(3))
        expected = reference_block(sampler, seed, range(3), fgn.STREAM_DIRECT)
        assert block.tobytes() == expected.tobytes()
        # the top stream and replication fill the key's high word to 2**63 - 1
        top = [(1 << 48) - 1]
        block = sample_fgn_block(sampler, seed, top, stream=(1 << 15) - 1)
        expected = reference_block(sampler, seed, top, (1 << 15) - 1)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1 << 63, (1 << 63) + 17])
    def test_seed_outside_range_rejected(self, seed):
        # a seed word >= 2**63 takes NumPy's float64 path for list keys,
        # where neighbouring seeds would share their draws
        sampler = build_sampler(FgnParams(0.6, 300))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            sample_fgn_block(sampler, seed, range(3))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            sample_fgn(sampler, seed)

    @pytest.mark.parametrize("stream", [-1, 0x8000, 0xFFFF, 0x10000])
    def test_stream_outside_range_rejected(self, stream):
        # outside [0, 2**15) the key's high word would wrap or pass 2**63,
        # where distinct (stream, replication) pairs can share a key
        sampler = build_sampler(FgnParams(0.6, 300))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*15\)"):
            sample_fgn_block(sampler, 5, range(3), stream=stream)

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in ("master_seed", "stream")
         for value in NOT_INTEGERS] + [("stream", 1.0)],
        ids=[f"{name}-{kind}" for name in ("master_seed", "stream")
             for kind in NOT_INTEGER_IDS] + ["stream-one"],
    )
    def test_non_integer_seed_or_stream_rejected(self, name, value):
        # a float seed must not draw its integer part's rows, nor a float
        # stream fail inside the key arithmetic
        sampler = build_sampler(FgnParams(0.6, 300))
        key = {"master_seed": 5, "stream": 0, name: value}
        with pytest.raises(ValueError, match=(
            rf"^{name} must be an integer, got {re.escape(repr(value))}$"
        )):
            sample_fgn_block(sampler, replications=range(3), **key)

    @pytest.mark.parametrize("kind", [np.int32, np.uint16, np.int64])
    def test_numpy_integer_seed_and_stream(self, kind):
        # a narrow NumPy stream id must keep its bits in the key shift
        sampler = build_sampler(FgnParams(0.6, 300))
        block = sample_fgn_block(sampler, kind(5), range(3), stream=kind(1))
        expected = sample_fgn_block(sampler, 5, range(3), stream=1)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("replications", [
        [0, -1], [0, 1 << 48], range(-1, 1), range((1 << 48) - 1, (1 << 48) + 1),
    ], ids=["-1", str(1 << 48), "range-below", "range-above"])
    def test_replication_outside_range_rejected(self, replications):
        # a range takes the same per-index check as any other sequence
        sampler = build_sampler(FgnParams(0.6, 300))
        with pytest.raises(ValueError, match=(
            r"^replication index must lie in \[0, 2\*\*48\), got "
        )):
            sample_fgn_block(sampler, 5, replications)

    @pytest.mark.parametrize("replications", [[1.5], [True, 2]],
                             ids=["float", "bool"])
    def test_non_integer_replication_rejected(self, replications):
        # a bool index must not draw replication 1, nor a float fail
        # inside the key arithmetic
        sampler = build_sampler(FgnParams(0.6, 300))
        with pytest.raises(ValueError, match=(
            r"^replication index must be an integer, got "
        )):
            sample_fgn_block(sampler, 5, replications)

    @pytest.mark.parametrize("kind", [np.int32, np.uint16, np.int64])
    def test_numpy_integer_replications_draw_the_range(self, kind):
        sampler = build_sampler(FgnParams(0.6, 300))
        block = sample_fgn_block(sampler, 5, [kind(rep) for rep in range(3, 7)])
        expected = sample_fgn_block(sampler, 5, range(3, 7))
        assert block.tobytes() == expected.tobytes()


class TestRowBlocks:
    @pytest.mark.parametrize("n", [100, 1000, 40_000])
    def test_ragged_last_block_equals_single_draws(self, n):
        sampler = build_sampler(FgnParams(0.7, n))
        block = max(1, _parallel.BLOCK_BYTES // (16 * sampler.embedding_size))
        reps = range(5, 5 + 2 * block + max(1, block // 2))
        drawn = sample_fgn_block(
            sampler, 77, reps, stream=fgn.STREAM_EXPERIMENT
        )
        single = np.concatenate(
            [
                sample_fgn_block(sampler, 77, [rep], stream=fgn.STREAM_EXPERIMENT)
                for rep in reps
            ]
        )
        assert drawn.shape == (len(reps), n)
        assert drawn.tobytes() == single.tobytes()



class TestSamplerGroup:
    # three samplers of M = 128
    PARAMS = [(0.6, 100), (0.8, 120), (0.7, 128)]

    def _group(self):
        samplers = [build_sampler(FgnParams(*p)) for p in self.PARAMS]
        return fgn.SamplerGroup(tuple(samplers))

    # the replications cross a boundary between blocks of normals
    SPAN = _parallel.BLOCK_BYTES // (16 * 128) + 3

    @pytest.mark.parametrize("seed, stream, first", [
        (9, fgn.STREAM_EXPERIMENT, 5),
        # the top seed, stream and replication fill both key words
        ((1 << 63) - 1, (1 << 15) - 1, (1 << 48) - SPAN),
    ], ids=["small-key", "top-key"])
    def test_each_sampler_draws_its_own_rows(self, seed, stream, first):
        group = self._group()
        reps = range(first, first + self.SPAN)
        drawn = sample_fgn_block(group, seed, reps, stream)
        assert len(drawn) == len(group.samplers)
        for sampler, rows in zip(group.samplers, drawn):
            alone = sample_fgn_block(sampler, seed, reps, stream=stream)
            assert rows.tobytes() == alone.tobytes()
            expected = reference_block(sampler, seed, reps, stream)
            assert rows.tobytes() == expected.tobytes()

    def test_returned_blocks_outlive_the_next_draw(self):
        group = self._group()
        first = sample_fgn_block(group, 9, range(40), fgn.STREAM_EXPERIMENT)
        kept = [rows.copy() for rows in first]
        sample_fgn_block(group, 9, range(40, 80), fgn.STREAM_EXPERIMENT)
        for rows, copy in zip(first, kept):
            assert rows.tobytes() == copy.tobytes()

    def test_embedding_sizes_must_agree(self):
        samplers = (build_sampler(FgnParams(0.7, 128)),
                    build_sampler(FgnParams(0.7, 129)))
        with pytest.raises(ValueError, match=r"one embedding size"):
            fgn.SamplerGroup(samplers)


class TestFbmGrid:
    def test_terminal_variance_is_one(self):
        # Var B_H(1) = 1 exactly for every grid, by the fGn sum identity
        grid = 1000
        sampler = build_sampler(FgnParams(0.6, grid))
        block = sample_fgn_block(sampler, 3, range(10_000))
        terminal = block.sum(axis=1) * grid ** (-0.6)
        assert terminal.var() == pytest.approx(1.0, abs=0.05)

    def test_midpoint_second_moment(self):
        # E B_H(1/2)^2 = (1/2)^{2H}
        grid, hurst = 1000, 0.7
        sampler = build_sampler(FgnParams(hurst, grid))
        block = sample_fgn_block(sampler, 21, range(4000))
        mid = block[:, : grid // 2].sum(axis=1) * grid ** (-hurst)
        assert np.mean(mid**2) == pytest.approx(0.5**1.4, abs=0.03)
