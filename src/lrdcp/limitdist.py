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
from dataclasses import dataclass, field, replace

import numpy as np

from . import _parallel
from .fgn import (
    REPLICATION_LIMIT,
    STREAM_LIMIT,
    FgnParams,
    build_sampler,
    check_seed,
    sample_fgn_block,
)
from .sntest import TestWindow, batch_tn_from_values

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
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(
                f"hurst must lie in (0.5, 1) for a long-range dependent "
                f"limit, got {self.hurst}"
            )
        if self.grid_size < 100:
            raise ValueError(f"grid_size must be >= 100, got {self.grid_size}")
        if not 100 <= self.replications <= REPLICATION_LIMIT:
            raise ValueError(
                f"replications (reps) must be >= 100 and <= 2**48, "
                f"got {self.replications}"
            )
        levels = tuple(self.levels)
        if not levels or any(not 0.0 < lv < 1.0 for lv in levels):
            raise ValueError(f"levels must lie strictly in (0, 1), got {levels}")
        object.__setattr__(self, "levels", levels)
        check_seed(self.master_seed)


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of the limit statistic for one Hurst value."""

    hurst: float
    window: TestWindow
    quantiles: dict = field(repr=False)
    replications: int = 0
    grid_size: int = 0
    master_seed: int = 0
    generator: str = GENERATOR_ID

    def critical_value(self, level):
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
        payload = {
            "hurst": self.hurst,
            "window": [self.window.tau1, self.window.tau2],
            "grid": self.grid_size,
            "reps": self.replications,
            "seed": self.master_seed,
            "generator": self.generator,
            "quantiles": {repr(float(lv)): q for lv, q in self.quantiles.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a malformed payload raises ValueError."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"critical-value table is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("critical-value table must be a JSON object")
        for key in ("hurst", "window", "quantiles", "reps", "grid", "seed"):
            if key not in payload:
                raise ValueError(f"critical-value table lacks key {key!r}")
        if not _finite_number(payload["hurst"]):
            raise ValueError(
                f"critical-value table hurst must be a number, "
                f"got {payload['hurst']!r}"
            )
        window = payload["window"]
        if not (isinstance(window, list) and len(window) == 2
                and all(map(_finite_number, window))):
            raise ValueError(
                f"critical-value table window must be two numbers, got {window!r}"
            )
        quantiles = payload["quantiles"]
        if not (isinstance(quantiles, dict) and quantiles and all(
            _is_level(lv) and _finite_number(q) for lv, q in quantiles.items()
        )):
            raise ValueError(
                "critical-value table quantiles must map levels in (0, 1) to "
                f"finite numbers, got {quantiles!r}"
            )
        return cls(
            hurst=payload["hurst"],
            window=TestWindow(*window),
            quantiles={float(lv): q for lv, q in quantiles.items()},
            replications=payload["reps"],
            grid_size=payload["grid"],
            master_seed=payload["seed"],
            generator=payload.get("generator", GENERATOR_ID),
        )


def _finite_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_level(key):
    try:
        return 0.0 < float(key) < 1.0
    except ValueError:
        return False


@dataclass(frozen=True)
class SimChunk:
    """Replications [lo, hi) of the statistic on fGn(hurst, n).

    The series gets ``shift`` added from ``change_index`` on, and is
    scored by the rank kernel (``use_ranks``) or the value kernel.  The
    limit law is the unranked, unshifted case on ``STREAM_LIMIT``.  The
    task with ``hi``, ``shift`` and ``change_index`` cleared is its draw
    key: row r of the fGn block depends on nothing else.
    """

    hurst: float
    n: int
    window: TestWindow
    master_seed: int
    lo: int
    hi: int
    stream: int = STREAM_LIMIT
    use_ranks: bool = False
    shift: float = 0.0
    change_index: int = 0


def chunk_tasks(replications, **fields):
    """The ``SimChunk`` of each fixed-size chunk of range(replications)."""
    return [
        SimChunk(lo=lo, hi=hi, **fields)
        for lo, hi in _parallel.chunk_ranges(replications)
    ]


def simulate_chunk(tasks):
    """Statistic values of each chunk task of one draw key, in task order.

    The tasks share ``lo`` and differ at most in ``hi``, ``shift`` and
    ``change_index``, so one block of fGn, replications [lo, max hi),
    serves them all: each task scores the block's leading ``hi - lo``
    rows.  A shifted task scores a shifted copy of them, except the last
    task, which shifts the block itself.  Every value is a pure function
    of its task.
    """
    first = tasks[0]
    sampler = build_sampler(FgnParams(first.hurst, first.n))
    block = sample_fgn_block(
        sampler, first.master_seed,
        range(first.lo, max(task.hi for task in tasks)), stream=first.stream,
    )
    k_lo, k_hi = first.window.split_range(first.n)
    values = []
    for i, task in enumerate(tasks):
        series = block[: task.hi - task.lo]
        if task.shift != 0.0:
            if i < len(tasks) - 1:
                series = series.copy()
            series[:, task.change_index:] += task.shift
        values.append(
            batch_tn_from_values(series, k_lo, k_hi, use_ranks=task.use_ranks)
        )
    return values


def simulate_cells(cells):
    """Values of each cell (a list of chunk tasks), from one chunked map.

    Tasks that differ only in ``hi``, ``shift`` and ``change_index``
    share a draw key, so a short trailing chunk reads the rows of a
    longer one; the map runs once per key, in the order the keys are
    first asked for, so one map serves every cell and each replication
    of each fGn series is drawn once.  Each cell's values come back in
    replication order.
    """
    keys = {}
    for cell in cells:
        for task in cell:
            key = replace(task, hi=task.lo, shift=0.0, change_index=0)
            keys.setdefault(key, {})[task] = None
    groups = [tuple(tasks) for tasks in keys.values()]
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
