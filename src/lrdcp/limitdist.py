"""Limit distribution of the test statistic and its critical values.

Under no change the statistic converges to

    sup_{lambda in [tau1, tau2]} |B_H(lambda) - lambda B_H(1)|
        / { int_0^lambda V^2(r; 0, lambda) dr
            + int_lambda^1 V^2(r; lambda, 1) dr }^{1/2}

with V(r; a, b) the fBm bridge over [a, b].  Discretized on the grid
{i/N} with the same step structure as the finite-sample statistic, the
functional is exactly the CUSUM form of the statistic applied to the
path's increments, so the simulation reuses the batched statistic kernel
on fGn series of length N (the functional is scale invariant, which
absorbs the N^{-H} self-similarity factor).

Critical values are upper empirical quantiles: the order statistic of
rank ceil((1 - level) * R), no interpolation.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from .fgn import (
    REPLICATION_LIMIT,
    SEED_LIMIT,
    STREAM_LIMIT,
    FgnParams,
    SamplerGroup,
    build_sampler,
    check_integer,
    check_real,
    check_seed,
    embedding_size,
    is_real,
    sample_fgn_block,
)
from .sntest import TestWindow, batch_tn_from_values, check_window

GENERATOR_ID = "fgn-circulant-embedding/philox"

DEFAULT_LEVELS = (0.10, 0.05, 0.01)


@dataclass(frozen=True)
class LimitSimSpec:
    """Parameters of one limit-distribution simulation."""

    hurst: float
    grid_size: int = 1000
    replications: int = 10000
    window: TestWindow = TestWindow()
    levels: tuple = DEFAULT_LEVELS
    master_seed: int = 0

    def __post_init__(self):
        check_real(self.hurst, "hurst", 0.5, 1.0,
                   "lie in (0.5, 1) for a long-range dependent limit")
        object.__setattr__(self, "grid_size", check_integer(
            self.grid_size, "grid_size", 100, math.inf, "be >= 100"))
        object.__setattr__(self, "replications", check_integer(
            self.replications, "replications (reps)", 100,
            REPLICATION_LIMIT + 1, "be >= 100 and <= 2**48"))
        check_window(self.window)
        try:
            levels = tuple(self.levels)
        except TypeError:  # not iterable: None or one number
            levels = ()
        if not levels or not all(is_real(lv) and 0.0 < lv < 1.0
                                 for lv in levels):
            raise ValueError(
                f"levels must lie strictly in (0, 1), got {self.levels!r}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "master_seed", check_seed(self.master_seed))


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of the limit statistic for one Hurst value.

    Checked when made (ValueError): fields of the types ``to_json``
    writes, and quantile values > 0 (T_n >= 0) that never rise as the
    level rises (equal values pass), so a lookup only reads.
    """

    hurst: float
    window: TestWindow
    quantiles: dict = field(repr=False)
    replications: int = 0
    grid_size: int = 0
    master_seed: int = 0
    generator: str = GENERATOR_ID

    def __post_init__(self):
        check_real(self.hurst, "critical-value table hurst", -math.inf,
                   math.inf, "be a number")
        check_window(self.window, "critical-value table window")
        object.__setattr__(self, "replications", check_integer(
            self.replications, "critical-value table reps", 0, math.inf,
            "be an integer >= 0"))
        object.__setattr__(self, "grid_size", check_integer(
            self.grid_size, "critical-value table grid", 0, math.inf,
            "be an integer >= 0"))
        object.__setattr__(self, "master_seed", check_integer(
            self.master_seed, "critical-value table seed", 0, SEED_LIMIT,
            "be an integer in [0, 2**63)"))
        if not isinstance(self.generator, str):
            raise ValueError(
                f"critical-value table generator must be a string, "
                f"got {self.generator!r}"
            )
        quantiles = self.quantiles
        if not (isinstance(quantiles, dict) and quantiles and all(
            is_real(lv) and 0.0 < lv < 1.0 and is_real(q) and math.isfinite(q)
            for lv, q in quantiles.items()
        )):
            raise ValueError(
                "critical-value table quantiles must map levels in (0, 1) to "
                f"finite numbers, got {quantiles!r}"
            )
        by_level = sorted(quantiles.items())
        for level, value in by_level:
            if not value > 0:
                raise ValueError(
                    f"critical-value table value for level {level} must be "
                    f"positive, got {value!r}"
                )
        if any(b > a for (_, a), (_, b) in zip(by_level, by_level[1:])):
            raise ValueError(
                "critical-value table values must not fall as the level "
                f"falls, got {dict(by_level)}"
            )

    def critical_value(self, level):
        """The table's value at ``level``; a missing level raises ValueError."""
        try:
            return self.quantiles[level]
        except KeyError:
            raise ValueError(
                f"missing critical value for level {level}; "
                f"table holds {sorted(self.quantiles)}"
            ) from None

    def check_matches(self, hurst, window):
        """Raise ValueError unless the table is for this H and window."""
        if self.hurst != hurst:
            raise ValueError(
                f"critical-value table is for hurst={self.hurst}, "
                f"requested hurst={hurst}"
            )
        if self.window != window:
            raise ValueError(
                f"critical-value table window ({self.window.tau1}, "
                f"{self.window.tau2}) does not match requested window "
                f"({window.tau1}, {window.tau2})"
            )

    def to_json(self):
        # numpy floats pass the checks but not json.dumps; the counts are
        # Python ints already
        payload = {
            "hurst": float(self.hurst),
            "window": [float(self.window.tau1), float(self.window.tau2)],
            "grid": self.grid_size,
            "reps": self.replications,
            "seed": self.master_seed,
            "generator": self.generator,
            "quantiles": {repr(float(lv)): float(q)
                          for lv, q in self.quantiles.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a malformed payload raises ValueError.

        Here: JSON with no key repeated in one object, an object with every
        required key, a valid window of two values, and quantile keys that
        read as numbers, one key per level.  The class checks the rest.
        """
        try:
            payload = json.loads(
                text, object_pairs_hook=_unique_keys("critical-value table"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"critical-value table is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("critical-value table must be a JSON object")
        for key in ("hurst", "window", "quantiles", "reps", "grid", "seed"):
            if key not in payload:
                raise ValueError(f"critical-value table lacks key {key!r}")
        window = payload["window"]
        if not (isinstance(window, list) and len(window) == 2):
            raise ValueError(
                f"critical-value table window must be two numbers, got {window!r}"
            )
        try:
            window = TestWindow(*window)
        except ValueError as exc:
            raise ValueError(f"critical-value table {exc}") from None
        quantiles = payload["quantiles"]
        try:
            levels = {float(lv): q for lv, q in quantiles.items()}
        except (AttributeError, ValueError):
            levels = quantiles  # not a map of levels: the class says so
        else:
            if len(levels) < len(quantiles):
                raise ValueError(
                    f"critical-value table quantiles name one level by two "
                    f"keys, got {sorted(quantiles)}"
                )
        return cls(
            hurst=payload["hurst"],
            window=window,
            quantiles=levels,
            replications=payload["reps"],
            grid_size=payload["grid"],
            master_seed=payload["seed"],
            generator=payload.get("generator", GENERATOR_ID),
        )


def _unique_keys(name):
    """A JSON object_pairs_hook: ``{name} repeats key 'KEY'`` on a repeat."""
    def hook(pairs):
        payload = {}
        for key, value in pairs:
            if key in payload:
                raise ValueError(f"{name} repeats key {key!r}")
            payload[key] = value
        return payload
    return hook


@dataclass(frozen=True)
class SimChunk:
    """Replications [lo, hi) of the statistic on fGn(hurst, n).

    Splits run over ``k_range``, the window's inclusive split range for
    n.  The series gets ``shift`` added from ``change_index`` on, and is
    scored by the rank kernel (``use_ranks``) or the value kernel.  The
    limit law is the unranked, unshifted case on ``STREAM_LIMIT``.  Its
    draw key is (master_seed, stream, lo, M), M = ``embedding_size(n)``:
    row r's normals depend on nothing else, so tasks of every H and n
    with one key read the same normals.
    """

    hurst: float
    n: int
    k_range: tuple
    master_seed: int
    lo: int
    hi: int
    stream: int = STREAM_LIMIT
    use_ranks: bool = False
    shift: float = 0.0
    change_index: int = 0


def chunk_tasks(replications, n, window, **fields):
    """The ``SimChunk`` of each chunk of range(replications).

    A window too narrow for n raises ValueError here, before any draw.
    """
    k_range = window.split_range(n)
    return [
        SimChunk(n=n, k_range=k_range, lo=lo, hi=hi, **fields)
        for lo, hi in _parallel.chunk_ranges(replications)
    ]


def simulate_chunk(tasks):
    """Statistic values of each chunk task of one draw key, in task order.

    The tasks share a draw key (see ``SimChunk``).  One sampler serves
    each (hurst, n) of them, and one ``SamplerGroup`` of those samplers
    draws every row's normals once, from ``lo`` up to the longest task's
    ``hi``.  Rows are drawn and scored in slabs that hold, over all
    samplers, no more series than the whole chunk of the longest n alone,
    so a group's memory does not grow with its number of Hurst values,
    and a group of one sampler takes the chunk in one slab.  A slab's
    list of blocks is never named, so it dies with its last sampler's
    scoring: while the next slab is drawn, only that sampler's block of
    the previous slab is still alive.  Each task scores the rows of its
    sampler's slab below its ``hi`` straight into the array it returns;
    a shifted task scores a shifted copy of them, except its sampler's
    last task, which shifts the slab itself.  Every value is a pure
    function of its task.
    """
    first = tasks[0]
    by_sampler = {}
    for task in tasks:
        by_sampler.setdefault((task.hurst, task.n), []).append(task)
    group = SamplerGroup(
        tuple(build_sampler(FgnParams(*params)) for params in by_sampler))
    top = max(task.hi for task in tasks)
    lengths = [n for _, n in by_sampler]
    slab = max(1, (top - first.lo) * max(lengths) // sum(lengths))
    out = {task: np.empty(task.hi - task.lo) for task in tasks}
    for lo in range(first.lo, top, slab):
        for block, own in zip(
            sample_fgn_block(group, first.master_seed,
                             range(lo, min(lo + slab, top)), first.stream),
            by_sampler.values(),
        ):
            for i, task in enumerate(own):
                if task.hi <= lo:
                    continue
                series = block[: task.hi - lo]
                if task.shift != 0.0:
                    if i < len(own) - 1:
                        series = series.copy()
                    series[:, task.change_index:] += task.shift
                out[task][lo - first.lo :][: len(series)] = (
                    batch_tn_from_values(series, *task.k_range, task.use_ranks))
    return [out[task] for task in tasks]


def simulate_cells(cells):
    """Values of each cell (a list of chunk tasks), from one chunked map.

    Tasks group by draw key (see ``SimChunk``), which tasks of any H, n,
    shift and end share: each row's normals are drawn once for every H
    and n of one embedding size, and a short trailing chunk reads the
    rows of a longer one.  The map runs ``simulate_chunk`` once per key.
    Keys go to the pool longest first, by the sum of (hi - lo) * n over
    their tasks, in a stable sort, so keys of equal work keep the order
    they were first asked for.  Each cell's values come back in
    replication order.
    """
    keys = {}
    for cell in cells:
        for task in cell:
            key = (task.master_seed, task.stream, task.lo,
                   embedding_size(task.n))
            keys.setdefault(key, {})[task] = None
    groups = sorted(
        (tuple(tasks) for tasks in keys.values()),
        key=lambda group: -sum((task.hi - task.lo) * task.n for task in group),
    )
    # forked workers inherit the draw's modules instead of each importing
    # them; imported here, not at module level, to keep `import lrdcp` lean
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401
    values = {}
    for group, group_values in zip(
        groups, _parallel.chunked_map(simulate_chunk, groups)
    ):
        values.update(zip(group, group_values))
    return [np.concatenate([values[task] for task in cell]) for cell in cells]


def limit_tasks(spec):
    """Chunk tasks of a limit-law simulation."""
    return chunk_tasks(
        spec.replications, hurst=spec.hurst, n=spec.grid_size,
        window=spec.window, master_seed=spec.master_seed,
    )


def simulate_limit_values(spec):
    """All replications of the limit statistic, in replication order."""
    return simulate_cells([limit_tasks(spec)])[0]


def upper_quantile(sorted_values, level):
    """Order statistic of rank ceil((1 - level) * R), 1-based."""
    r = len(sorted_values)
    rank = min(max(math.ceil((1.0 - level) * r), 1), r)
    return float(sorted_values[rank - 1])


def critical_values(spec):
    """Simulate the limit distribution and tabulate its upper quantiles."""
    return critical_value_table(spec, simulate_limit_values(spec))


def critical_value_table(spec, values):
    """The spec's table from its simulated limit values."""
    values = np.sort(values)
    quantiles = {level: upper_quantile(values, level) for level in spec.levels}
    return CriticalValueTable(
        hurst=spec.hurst,
        window=spec.window,
        quantiles=quantiles,
        replications=spec.replications,
        grid_size=spec.grid_size,
        master_seed=spec.master_seed,
    )
