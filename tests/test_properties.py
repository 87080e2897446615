"""Property tests of the rank, G_n and fGn kernels, of the statistics'
exact invariances, of the chunked map of simulation cells, of the
critical-value JSON and of the CLI's series reader and --config file, on
drawn inputs.

Hypothesis runs derandomized and without an example database, so every
run checks the same examples.
"""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from _oracle import expanded_gn, naive_gn_oracle, read_series_oracle
from lrdcp import _parallel, cli, limitdist, rankstat, sntest
from lrdcp.fgn import FgnParams, build_sampler, sample_fgn_block
from lrdcp.rankstat import TimeSeries, _midranks, rankdata
from lrdcp.sntest import batch_tn_from_values

PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)

# values at the middle and the ends of the int64 key order: subnormals
# next to zero, the largest finite magnitudes and the infinities
SPECIAL = st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
])
ELEMENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
    SPECIAL,
    st.floats(allow_nan=False),
)


@st.composite
def value_blocks(draw, max_n=70):
    """(rows, n) blocks of floats, with a drawn share of entries moved to
    a float neighbour.

    Half the blocks draw from a pool of a few values, so they hold ties;
    the other half start from distinct values, and may then get one +0.0
    and one -0.0 in each row, which must tie.
    """
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, max_n)))
    ties = draw(st.booleans())
    if ties:
        pool = draw(st.lists(ELEMENTS, min_size=1, max_size=5))
        elements = st.one_of(st.sampled_from(pool), ELEMENTS)
        x = draw(arrays(np.float64, shape, elements=elements))
    else:
        x = draw(arrays(np.float64, shape, elements=ELEMENTS, unique=True))
    moved = draw(arrays(np.int8, shape, elements=st.integers(-1, 1)))
    toward = np.where(moved < 0, -np.inf, np.inf)
    with np.errstate(over="ignore"):  # the largest finite float steps to inf
        x = np.where(moved == 0, x, np.nextafter(x, toward))
    if not ties and shape[1] >= 2 and draw(st.booleans()):
        plus, minus = draw(st.permutations(range(shape[1])))[:2]
        x[:, plus], x[:, minus] = 0.0, -0.0
    return x


class TestRankProperties:
    @PROPERTY
    @given(value_blocks())
    def test_rankdata_is_scipy_average_bit_for_bit(self, x):
        expected = stats.rankdata(x, method="average", axis=-1)
        assert rankdata(x).tobytes() == expected.tobytes()

    @PROPERTY
    @given(value_blocks())
    def test_tie_flag_is_equal_sorted_neighbours(self, x):
        ordered = np.sort(x, axis=-1)
        expected = (ordered[:, 1:] == ordered[:, :-1]).any(axis=-1)
        assert (_midranks(x)[1] == expected).all()


@st.composite
def tied_batches(draw):
    """A (rows, n) batch over a small alphabet and a split range in [1, n-1]."""
    n = draw(st.integers(8, 48))
    rows = draw(st.integers(1, 3))
    alphabet = draw(st.integers(1, 6))
    x = draw(arrays(np.float64, (rows, n),
                    elements=st.integers(0, alphabet - 1).map(float)))
    k_lo = draw(st.integers(1, n - 1))
    k_hi = draw(st.integers(k_lo, n - 1))
    return x, k_lo, k_hi


def magnitudes(low, high):
    """Floats that are 0 or of magnitude in [low, high], either sign."""
    return st.one_of(st.just(0.0), st.floats(low, high),
                     st.floats(-high, -low))


# magnitudes 0 or in [1e-6, 1e3], so every x * 2**e with |e| <= 1000 is
# an exact, normal float
SCALABLE = magnitudes(1e-6, 1e3)


# Kernel and oracle differ only by powers of two: the kernel divides d_k
# by k/2 where the oracle doubles d_k/k, and multiplies the square of
# that by sum t^2 / 4.  Those scalings are exact unless a value leaves
# the normal range: (2 d_k/k)^2 overflows first once |d_k/k| nears 7e153,
# and a subnormal d_k/k or square rounds on a coarser grid.  The profiles
# drawn here stay far inside it, as the package's do: rank profiles are
# half-integers below n^2, fGn rows get a scale and an offset that are 0
# or of magnitude 1e-3 to 1e3 and 1e6, and CUSUM rows are scaled to a
# unit range from SCALABLE values.
@st.composite
def kernel_profiles(draw):
    """A (rows, n+1) deviation profile as the package builds one, its
    numerator noise floor and a split range in [1, n-1].

    Rank profiles of values over an alphabet of 1 to n values, so with
    ties and constant rows; value profiles of fGn rows under a drawn scale
    and offset; or the CUSUM profile of ``sn_cusum_statistic``: one
    series scaled by ``_unit_scaled``, less its median element.
    """
    n = draw(st.integers(8, 200))
    rows = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["rank", "fgn", "cusum"]))
    if kind == "rank":
        alphabet = draw(st.integers(1, n))
        x = draw(arrays(np.float64, (rows, n),
                        elements=st.integers(0, alphabet - 1).map(float)))
        d, num_scale = rankstat.deviation_rows(rankdata(x), True)
    elif kind == "fgn":
        params = FgnParams(draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])), n)
        x = sample_fgn_block(build_sampler(params),
                             draw(st.integers(0, 2**32 - 1)), range(rows))
        x = x * draw(magnitudes(1e-3, 1e3)) + draw(magnitudes(1e-3, 1e6))
        d, num_scale = rankstat.deviation_rows(x, False)
    else:
        v = sntest._unit_scaled(draw(arrays(np.float64, n,
                                            elements=SCALABLE)))
        v -= np.partition(v, n // 2)[n // 2]
        d, num_scale = rankstat.deviation_rows(v[np.newaxis], False)
    k_lo = draw(st.integers(1, n - 1))
    return d, k_lo, draw(st.integers(k_lo, n - 1)), num_scale


def assert_expanded_bits(d, k_lo, k_hi, num_scale):
    gn, flags = sntest._gn_matrix(d, k_lo, k_hi, num_scale)
    expected, expected_flags = expanded_gn(d, k_lo, k_hi, num_scale)
    assert gn.tobytes() == expected.tobytes()
    assert flags.tobytes() == expected_flags.tobytes()


class TestKernelProperties:
    @PROPERTY
    @given(tied_batches())
    def test_batch_statistic_matches_oracle(self, case):
        x, k_lo, k_hi = case
        values = batch_tn_from_values(x, k_lo, k_hi, use_ranks=True)
        for row, value in zip(x, values):
            expected = max(naive_gn_oracle(row, k)
                           for k in range(k_lo, k_hi + 1))
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @PROPERTY
    @given(kernel_profiles())
    def test_kernel_has_the_expanded_forms_bits(self, case):
        d, k_lo, k_hi, num_scale = case
        assert_expanded_bits(d, k_lo, k_hi, num_scale)

    @pytest.mark.parametrize("ranked", [True, False], ids=["rank", "value"])
    def test_long_row_builds_its_own_constants(self, ranked):
        n = _parallel.BLOCK_BYTES // 8  # its (1, n+1) profile is too big
        x = sample_fgn_block(build_sampler(FgnParams(0.7, n)), 5, [0])
        d, num_scale = rankstat.deviation_rows(
            rankdata(x) if ranked else x, ranked)
        before = rankstat._kept.cache_info()
        assert_expanded_bits(d, *sntest.TestWindow().split_range(n),
                             num_scale)
        assert rankstat._kept.cache_info() == before


@st.composite
def increasing_images(draw):
    """A series, its image under a strictly increasing map, and a shift.

    The series is drawn over an alphabet of 1 to n values, so it has ties
    unless the alphabet is as long as it; the shift is an integer that
    keeps every sum exact.
    """
    n = draw(st.integers(8, 60))
    alphabet = draw(st.integers(1, n))
    x = draw(arrays(np.float64, n,
                    elements=st.integers(0, alphabet - 1).map(float)))
    support = np.unique(x)
    image = np.sort(draw(arrays(
        np.float64, len(support), unique=True,
        elements=st.floats(-1e300, 1e300, allow_subnormal=True),
    )))
    return x, image[np.searchsorted(support, x)], draw(
        st.integers(-(2**40), 2**40))



def _same_result(a, b):
    return (a.profile.tobytes() == b.profile.tobytes()
            and (a.statistic, a.argmax_k, a.tie_flag, a.degenerate_flag)
            == (b.statistic, b.argmax_k, b.tie_flag, b.degenerate_flag))


class TestInvarianceProperties:
    @settings(PROPERTY, max_examples=50)
    @given(increasing_images())
    def test_rank_statistic_ignores_increasing_maps_and_shifts(self, case):
        x, image, shift = case
        base = sntest.tn_statistic(TimeSeries(x))
        assert _same_result(sntest.tn_statistic(TimeSeries(image)), base)
        assert _same_result(sntest.tn_statistic(TimeSeries(x + shift)), base)

    @PROPERTY
    @given(arrays(np.float64, st.integers(8, 60), elements=SCALABLE),
           st.integers(-1000, 1000))
    def test_cusum_keeps_every_bit_under_powers_of_two(self, x, exponent):
        base = sntest.sn_cusum_statistic(TimeSeries(x))
        scaled = sntest.sn_cusum_statistic(TimeSeries(np.ldexp(x, exponent)))
        assert _same_result(scaled, base)
        assert not np.isnan(scaled.profile).any()


@st.composite
def replication_splits(draw):
    """A replication range [lo, hi) and sorted cut points inside it."""
    lo = draw(st.integers(0, 2**48 - 40))
    hi = lo + draw(st.integers(1, 24))
    cuts = draw(st.lists(st.integers(lo, hi), max_size=4))
    return lo, hi, sorted(cuts)


class TestDrawProperties:
    @PROPERTY
    @given(
        st.integers(2, 40),
        st.floats(0.05, 0.95),
        st.integers(0, 2**63 - 1),
        st.integers(0, 2**15 - 1),
        replication_splits(),
    )
    def test_rows_do_not_depend_on_the_split(self, n, hurst, seed, stream,
                                             split):
        lo, hi, cuts = split
        sampler = build_sampler(FgnParams(hurst, n))
        whole = sample_fgn_block(sampler, seed, range(lo, hi), stream)
        edges = [lo, *cuts, hi]
        parts = [sample_fgn_block(sampler, seed, range(a, b), stream)
                 for a, b in zip(edges[:-1], edges[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        reversed_rows = sample_fgn_block(sampler, seed,
                                         range(hi - 1, lo - 1, -1), stream)
        assert reversed_rows[::-1].tobytes() == whole.tobytes()


@st.composite
def simulation_cells(draw):
    """Cells of chunk tasks over two or three draw keys, in any order.

    The first two keys share a stream and an embedding size M but differ
    in H and in n, and one is scored by each kernel, so their chunks are
    drawn together and transformed apart.  Replication counts are never
    multiples of the chunk size, so short trailing chunks read rows of
    longer draws; a cell may repeat.
    """
    m = draw(st.sampled_from([16, 32, 64]))
    lengths = draw(st.lists(st.integers(max(10, m // 2 + 1), m),
                            min_size=2, max_size=2, unique=True))
    hursts = draw(st.lists(st.floats(0.55, 0.95), min_size=2, max_size=2,
                           unique=True))
    stream = draw(st.integers(0, 3))
    keys = [(hurst, n, stream) for hurst, n in zip(hursts, lengths)]
    keys += draw(st.lists(
        st.tuples(st.floats(0.55, 0.95), st.integers(10, 40),
                  st.integers(0, 3)),
        max_size=1,
    ))

    def cell(hurst, n, stream, use_ranks):
        reps = draw(st.integers(1, 1200).filter(
            lambda r: r % _parallel.CHUNK_SIZE))
        return limitdist.chunk_tasks(
            reps, hurst=hurst, n=n, window=sntest.TestWindow(), master_seed=11,
            stream=stream, use_ranks=use_ranks,
            shift=draw(st.sampled_from([0.0, 0.5, -2.0])),
            change_index=draw(st.integers(0, n - 1)),
        )

    cells = [cell(*key, use_ranks) for key, use_ranks in
             zip(keys, draw(st.permutations([True, False])))]
    for _ in range(draw(st.integers(0, 2))):
        cells.append(cell(*draw(st.sampled_from(keys)), draw(st.booleans())))
    if draw(st.booleans()):
        cells.append(draw(st.sampled_from(cells)))
    return draw(st.permutations(cells))


class TestCellProperties:
    @settings(PROPERTY, max_examples=30)
    @given(simulation_cells())
    def test_cells_mapped_together_equal_each_cell_alone(self, cells):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("LRD_CP_THREADS", "1")
            alone = [limitdist.simulate_cells([cell])[0].tobytes()
                     for cell in cells]
            for threads in ("1", "2"):
                patch.setenv("LRD_CP_THREADS", threads)
                together = limitdist.simulate_cells(cells)
                assert [values.tobytes() for values in together] == alone


FINITE = st.floats(allow_nan=False, allow_infinity=False)

CV_TABLES = st.builds(
    limitdist.CriticalValueTable,
    hurst=FINITE,
    window=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=2, max_size=2, unique=True)
    .map(lambda taus: sntest.TestWindow(*sorted(taus))),
    # positive values, paired so that none rises as the level rises
    quantiles=st.dictionaries(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, exclude_min=True, allow_infinity=False),
        min_size=1, max_size=5,
    ).map(lambda drawn: dict(zip(sorted(drawn),
                                 sorted(drawn.values(), reverse=True)))),
    replications=st.integers(0, 2**48),
    grid_size=st.integers(0, 10**6),
    master_seed=st.integers(0, 2**63 - 1),
    generator=st.text(max_size=20),
)


class TestTableProperties:
    @settings(PROPERTY, max_examples=50)
    @given(CV_TABLES)
    def test_table_round_trips_through_json(self, table):
        text = table.to_json()
        parsed = limitdist.CriticalValueTable.from_json(text)
        assert parsed == table
        assert parsed.to_json() == text

    @settings(PROPERTY, max_examples=50)
    @given(
        arrays(np.float64, st.integers(100, 400), elements=st.one_of(
            st.integers(1, 4).map(float),
            st.floats(0.0, 1e300, exclude_min=True),
        )),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 min_size=1, max_size=4, unique=True),
    )
    def test_simulated_table_passes_lookup(self, values, levels):
        # upper quantiles of one sample never rise with the level, so the
        # lookup's order check never rejects a table built from a sample
        spec = limitdist.LimitSimSpec(0.7, replications=len(values),
                                      levels=levels)
        table = limitdist.critical_value_table(spec, values)
        ordered = np.sort(values)
        for level in levels:
            assert table.critical_value(level) == limitdist.upper_quantile(
                ordered, level)

    @settings(PROPERTY, max_examples=200)
    @given(
        arrays(np.float64, st.integers(1, 100), elements=st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e300, 1e300),
        )),
        st.one_of(st.sampled_from(limitdist.LimitSimSpec.levels),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        st.data(),
    )
    def test_verdict_rule_is_numpys_inverted_cdf(self, values, level, data):
        # the order statistic a verdict compares with is NumPy's own
        # (1 - level)-quantile of the sample, and T exceeds it exactly
        # when at most R - k values reach T
        quantile = limitdist.upper_quantile(np.sort(values), level)
        assert quantile == np.quantile(values, 1 - level,
                                       method="inverted_cdf")
        near = st.sampled_from(values.tolist()).flatmap(
            lambda v: st.sampled_from([np.nextafter(v, -np.inf),
                                       np.nextafter(v, np.inf)]))
        statistic = data.draw(st.one_of(near, st.floats(allow_nan=False)))
        assume(statistic not in values)
        r = len(values)
        k = min(max(math.ceil((1 - level) * r), 1), r)
        assert (statistic > quantile) == (
            np.count_nonzero(values >= statistic) <= r - k)


COMMENTS = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
).map(lambda parts: parts[0] + "#" + parts[1])
PADDING = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def series_files(draw):
    """Finite values and a file text holding their ``repr``s.

    One padded value per line, between drawn blank lines and comments,
    with one drawn line ending and an optional final one.
    """
    values = draw(st.lists(FINITE, min_size=4, max_size=30))
    extra = st.lists(st.one_of(PADDING, COMMENTS), max_size=2)
    lines = []
    for value in values:
        lines += draw(extra)
        lines.append(draw(PADDING) + repr(value) + draw(PADDING))
    lines += draw(extra)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return values, ending.join(lines) + draw(st.sampled_from(["", ending]))


# whitespace to str.strip(), some of it not to NumPy's reader
BLANKS = st.sampled_from(["", " ", "\t", " \t ", "\u00a0", "\u3000", "\x0b",
                          "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"])
VALUE_TOKENS = st.one_of(FINITE.map(repr), FINITE.map(lambda x: "%.17g" % x))
# tokens only float() takes, edge values, and tokens the reader refuses
TWO_FIELDS = st.sampled_from(["1 .5", "1.5 2.5"])
ODD_TOKENS = st.one_of(TWO_FIELDS, st.sampled_from([
    "1_000", "\u0661.5", "+1e3", "-0.0", "5e-324", "nan", "-inf", "1e400",
    "0x10", "abc",
]))


@st.composite
def reader_files(draw):
    """A file text of padded values, one per line, and perhaps odd tokens.

    ``repr`` or ``%.17g`` values between drawn blank and whitespace-only
    lines and, in half the files, comments; up to two values, or all of
    them, swapped for an odd token; one drawn line ending and an optional
    final one.
    """
    filler = st.one_of(BLANKS, COMMENTS) if draw(st.booleans()) else BLANKS
    extra = st.lists(filler, max_size=2)
    tokens = draw(st.lists(VALUE_TOKENS, max_size=30))
    swaps = draw(st.integers(0, 3)) if tokens else 0
    if swaps == 3:  # every value, so each line has the token's shape
        tokens = [draw(ODD_TOKENS)] * len(tokens)
    for _ in range(swaps % 3):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(ODD_TOKENS)
    lines = []
    for token in tokens:
        lines += draw(extra)
        lines.append(draw(BLANKS) + token + draw(BLANKS))
    lines += draw(extra)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return tmp_path_factory.mktemp("series") / "series.txt"


class TestReaderProperties:
    @settings(PROPERTY, max_examples=50)
    @given(series_files())
    def test_read_series_round_trips_repr_lines(self, series_path, case):
        values, text = case
        series_path.write_bytes(text.encode())
        assert (cli.read_series(series_path).values.tobytes()
                == np.array(values).tobytes())

    @settings(PROPERTY, max_examples=150)
    @given(reader_files())
    def test_read_series_matches_per_line_oracle(self, series_path, text):
        series_path.write_bytes(text.encode())

        def outcome(read):
            try:
                return TimeSeries(read(series_path)).values.tobytes()
            except ValueError as exc:
                return str(exc)

        assert outcome(lambda path: cli.read_series(path).values) == (
            outcome(read_series_oracle))


# the required flags of each subcommand, typed in every parse below
REQUIRED = {
    "test": ["--input", "x.txt"],
    "generate-fgn": ["--length", "16", "--out", "x.txt"],
    "critical-values": [],
    "experiment": ["--kind", "size", "--n", "50"],
    "reproduce-tables": ["--out", "tables"],
}
# values each flag type accepts, keyed by the type argparse converts with
FLAG_VALUES = {
    float: st.floats(allow_nan=False, allow_infinity=False),
    int: st.integers(-(2**70), 2**70),
    cli._seed_arg: st.integers(0, 2**63 - 1),
    cli._levels_arg: st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1,
        max_size=4).map(lambda values: ",".join(map(repr, values))),
    None: st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
}
OPTIONAL_FLAGS = [
    (name, action)
    for name, sub in cli.build_parser()._command_parsers.items()
    for action in sub._actions
    if action.option_strings and not action.required
    and action.default is not argparse.SUPPRESS
]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


def parse(name, typed=(), config=None, path=None):
    """The namespace ``main`` would run, without its --config path."""
    argv = [name, *REQUIRED[name], *typed]
    if config is not None:
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    parser = cli.build_parser()
    args = vars(cli._apply_config(parser, parser.parse_args(argv), argv))
    del args["config"]
    return args


# JSON values no flag takes
NON_SCALARS = st.one_of(
    st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def flag_values(action):
    """A valid value of ``action``'s flag, as JSON holds it."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    return FLAG_VALUES[action.type]


class TestConfigProperties:
    @pytest.mark.parametrize(
        "name, action", OPTIONAL_FLAGS,
        ids=[f"{name}{action.option_strings[0]}"
             for name, action in OPTIONAL_FLAGS],
    )
    @settings(PROPERTY, max_examples=10)
    @given(data=st.data())
    def test_config_value_parses_as_the_typed_flag(self, name, action,
                                                   config_path, data):
        values = flag_values(action)
        value, other = data.draw(values), data.draw(values)
        as_text = data.draw(st.booleans())  # "0.7" and 0.7 both mean 0.7
        config = {action.dest: str(value) if as_text else value}
        flag = action.option_strings[0]
        typed = parse(name, [f"{flag}={value}"])
        assert parse(name, config=config, path=config_path) == typed
        typed_other = [f"{flag}={other}"]  # the typed flag wins
        assert (parse(name, typed_other, config, config_path)
                == parse(name, typed_other))

    @pytest.mark.parametrize(
        "name, action", OPTIONAL_FLAGS,
        ids=[f"{name}{action.option_strings[0]}"
             for name, action in OPTIONAL_FLAGS],
    )
    @settings(PROPERTY, max_examples=5)
    @given(value=NON_SCALARS)
    def test_non_scalar_config_value_is_usage_error(self, name, action,
                                                     config_path, value):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            parse(name, config={action.dest: value}, path=config_path)
        assert exc.value.code == 2
        assert err.getvalue().splitlines()[-1].startswith(
            f"lrdcp: error: config {config_path}: {action.dest}: expected a "
            f"JSON string or number, got "
        )
