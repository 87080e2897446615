"""Property tests of the rank, G_n and fGn kernels, of the chunked map of
simulation cells and of the CLI's --config file, on drawn inputs.

Hypothesis runs derandomized and without an example database, so every
run checks the same examples.
"""

import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from _oracle import naive_gn_oracle
from lrdcp import _parallel, cli, limitdist, sntest
from lrdcp.fgn import FgnParams, build_sampler, sample_fgn_block
from lrdcp.rankstat import _midranks, rankdata
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
    """Cells of chunk tasks over at most two draw keys, in any order.

    Replication counts are never multiples of the chunk size, so short
    trailing chunks read rows of longer draws; a cell may repeat.
    """
    keys = draw(st.lists(
        st.tuples(st.floats(0.55, 0.95), st.integers(10, 40),
                  st.integers(0, 3)),
        min_size=1, max_size=2,
    ))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        hurst, n, stream = draw(st.sampled_from(keys))
        reps = draw(st.integers(1, 1200).filter(
            lambda r: r % _parallel.CHUNK_SIZE))
        cells.append(limitdist.chunk_tasks(
            reps, hurst=hurst, n=n, window=sntest.TestWindow(), master_seed=11,
            stream=stream, use_ranks=draw(st.booleans()),
            shift=draw(st.sampled_from([0.0, 0.5, -2.0])),
            change_index=draw(st.integers(0, n - 1)),
        ))
    if draw(st.booleans()):
        cells.append(draw(st.sampled_from(cells)))
    return draw(st.permutations(cells))


class TestCellProperties:
    @settings(PROPERTY, max_examples=50)
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
