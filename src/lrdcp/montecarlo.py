"""Monte Carlo harness: size, power, consistency, local alternatives.

One replication draws fGn(H, n), applies the mean shift of the requested
alternative to the observations after the change fraction, evaluates the
test statistic, and compares it against a precomputed critical value.
Critical values are consumed from the limit-distribution tables rather
than re-simulated per experiment, keeping the two Monte Carlo error
sources separate.

Shift conventions:
    size               no shift
    power/consistency  fixed height delta after floor(n * tau)
    local_alternative  height c * n^{H-1} after floor(n * tau), the
                       n^{-1} d_n scaling under which the statistic has a
                       nondegenerate limit (d_n = n^H exactly for fGn)

Every row of the size and power study tables is one ExperimentSpec,
aggregated as in ``experiment`` and written as its ``to_csv_row`` projected
onto the table's columns; a power cell's two level rows share its chunks.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .fgn import (REPLICATION_LIMIT, STREAM_EXPERIMENT, check_integer,
                  check_real, check_seed, is_real)
from .limitdist import (
    LimitSimSpec,
    chunk_tasks,
    critical_value_table,
    limit_tasks,
    simulate_cells,
)
from .sntest import TestWindow, check_window

# not called here: they stay attributes of this module, where
# bench/tracing.py wraps them; the chunks themselves run in limitdist
from .fgn import build_sampler, sample_fgn_block  # noqa: F401
from .limitdist import critical_values  # noqa: F401
from .sntest import batch_tn_from_values  # noqa: F401

KINDS = ("size", "power", "consistency", "local_alternative")


@dataclass(frozen=True)
class ExperimentSpec:
    """Immutable description of one Monte Carlo experiment."""

    kind: str
    hurst: float
    n: int
    replications: int
    delta: float = 0.0
    tau: float = 0.5
    c: float = 0.0
    level: float = 0.05
    window: TestWindow = TestWindow()
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # every experiment reads a limit table, which needs H in (0.5, 1)
        check_real(self.hurst, "hurst", 0.5, 1.0, "lie in (0.5, 1)")
        object.__setattr__(self, "n", check_integer(
            self.n, "n", 4, math.inf, "be at least 4"))
        object.__setattr__(self, "replications", check_integer(
            self.replications, "replications", 1, REPLICATION_LIMIT + 1,
            "be positive and at most 2**48"))
        check_real(self.tau, "tau", 0.0, 1.0, "lie in (0, 1)")
        # a shift from index 0 moves the whole series: the null in disguise
        if self.kind != "size" and math.floor(self.n * self.tau) < 1:
            raise ValueError(
                f"{self.kind} experiments need floor(n * tau) >= 1, got "
                f"n={self.n}, tau={self.tau}"
            )
        check_real(self.level, "level", 0.0, 1.0, "lie in (0, 1)")
        check_real(self.delta, "delta", -math.inf, math.inf, "be finite")
        check_real(self.c, "c", -math.inf, math.inf, "be finite")
        if self.kind == "size" and self.delta != 0.0:
            raise ValueError("size experiments must have delta = 0")
        if self.kind in ("power", "consistency") and self.delta == 0.0:
            raise ValueError(f"{self.kind} experiments must have delta != 0")
        if self.kind == "local_alternative" and self.delta != 0.0:
            raise ValueError(
                "local_alternative experiments take c, not a fixed delta"
            )
        if self.kind != "local_alternative" and self.c != 0.0:
            raise ValueError(
                f"{self.kind} experiments must have c = 0 (c scales the "
                f"local_alternative shift)"
            )
        check_window(self.window).split_range(self.n)
        object.__setattr__(self, "master_seed", check_seed(self.master_seed))

    @property
    def shift(self):
        """Height of the level shift applied after floor(n * tau)."""
        if self.kind == "local_alternative":
            return self.c * float(self.n) ** (self.hurst - 1.0)
        return self.delta


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of one experiment."""

    spec: ExperimentSpec
    rejection_rate: float
    rejection_count: int
    critical_value_used: float
    mean_statistic: float
    median_statistic: float
    seconds: float

    @property
    def rejection_se(self):
        """Binomial standard error of the rejection rate, sqrt(p(1-p)/R)."""
        p = self.rejection_rate
        return math.sqrt(p * (1.0 - p) / self.spec.replications)

    def to_csv_row(self):
        return {
            "kind": self.spec.kind,
            "hurst": self.spec.hurst,
            "n": self.spec.n,
            "delta": self.spec.delta,
            "tau": self.spec.tau,
            "c": self.spec.c,
            "level": self.spec.level,
            "reps": self.spec.replications,
            "rejection_rate": self.rejection_rate,
            "cv": self.critical_value_used,
            "seed": self.spec.master_seed,
        }


CSV_COLUMNS = (
    "kind hurst n delta tau c level reps rejection_rate cv seed".split()
)


def experiment_tasks(spec):
    """Chunk tasks of an experiment: ranked, on the experiment stream."""
    return chunk_tasks(
        spec.replications, hurst=spec.hurst, n=spec.n, window=spec.window,
        master_seed=spec.master_seed, stream=STREAM_EXPERIMENT,
        use_ranks=True, shift=spec.shift,
        change_index=math.floor(spec.n * spec.tau),
    )


def simulate_statistics(spec):
    """Per-replication statistic values under the spec's alternative."""
    return simulate_cells([experiment_tasks(spec)])[0]


def _median(values):
    """``np.median`` of NaN-free values, bit for bit, without numpy.ma."""
    half = values.size // 2
    part = np.partition(values, (max(half - 1, 0), half))
    if values.size % 2:
        return part[half]
    return (part[half - 1] + part[half]) / 2.0


def _aggregate(spec, values, cv, seconds):
    count = int((values > cv).sum())
    return ExperimentResult(
        spec=spec,
        rejection_rate=count / spec.replications,
        rejection_count=count,
        critical_value_used=cv,
        mean_statistic=float(values.mean()),
        median_statistic=float(_median(values)),
        seconds=seconds,
    )


def _critical_value(spec, cv_table):
    cv_table.check_matches(spec.hurst, spec.window)
    return cv_table.critical_value(spec.level)


def run_experiment(spec, cv_table):
    """Run one experiment against a matching critical-value table."""
    cv = _critical_value(spec, cv_table)
    start = time.perf_counter()
    values = simulate_statistics(spec)
    return _aggregate(spec, values, cv, time.perf_counter() - start)


def run_experiments(specs, cv_table):
    """``run_experiment`` of each spec, with every chunk in one map.

    Each result's ``seconds`` is the wall time of that shared map.
    """
    cvs = [_critical_value(spec, cv_table) for spec in specs]
    start = time.perf_counter()
    cells = simulate_cells([experiment_tasks(spec) for spec in specs])
    seconds = time.perf_counter() - start
    return [
        _aggregate(spec, values, cv, seconds)
        for spec, values, cv in zip(specs, cells, cvs)
    ]


# grids of the standard report tables
TABLE_HURSTS = (0.6, 0.7, 0.8, 0.9)
TABLE_SIZE_NS = (10, 50, 100, 500, 1000)
TABLE_POWER_NS = (100, 500)
TABLE_DELTAS = (0.5, 1.0, 2.0)
TABLE_POWER_LEVELS = (0.10, 0.05)

# each table's CSV columns; table2-4 project ExperimentResult.to_csv_row
TABLE_COLUMNS = {
    "table1": ("hurst", "level", "critical_value"),
    "table2": ("hurst", "n", "level", "reps", "rejection_rate"),
}
TABLE_COLUMNS["table3"] = TABLE_COLUMNS["table4"] = (
    "hurst", "n", "delta", "tau", "level", "reps", "rejection_rate"
)


def table_replications(scale):
    """Replication count of each table's cells at ``scale``, floor 200.

    The one check of ``scale``: raises ValueError unless it is a number
    (not a bool), positive and finite, and keeps every count within
    ``REPLICATION_LIMIT``.
    """
    full = {"critical_values": 10000, "size": 10000, "power": 5000}
    if not is_real(scale):
        raise ValueError(f"--scale must be a number, got {scale!r}")
    if not scale > 0.0:
        raise ValueError(f"--scale must be positive and finite, got {scale}")
    if not scale * max(full.values()) <= REPLICATION_LIMIT:
        raise ValueError(f"--scale must be positive and finite and keep "
                         f"every replication count at most 2**48, got {scale}")
    return {name: max(int(round(reps * scale)), 200)
            for name, reps in full.items()}


def reproduce_tables(out_dir, scale=1.0, master_seed=0, window=TestWindow()):
    """Emit the four standard study tables as CSV files plus a manifest.

    table1: critical values; table2: empirical size at the 5% level;
    table3/table4: empirical power for tau = 0.5 / 0.25 at the 10% and
    5% levels.  Each row of table2-4 is one ``ExperimentSpec``, scored
    against table1's critical value for its H.  ``scale`` multiplies the
    replication counts (floor 200) for smoke runs.
    """
    start = time.perf_counter()
    replications = table_replications(scale)
    limit_specs = [
        LimitSimSpec(hurst=hurst, replications=replications["critical_values"],
                     window=window, master_seed=master_seed)
        for hurst in TABLE_HURSTS
    ]
    table_specs = {"table2": [
        ExperimentSpec(kind="size", hurst=hurst, n=n,
                       replications=replications["size"], window=window,
                       master_seed=master_seed)
        for hurst in TABLE_HURSTS for n in TABLE_SIZE_NS
    ]}
    for name, tau in (("table3", 0.5), ("table4", 0.25)):
        table_specs[name] = [
            ExperimentSpec(kind="power", hurst=hurst, n=n,
                           replications=replications["power"], delta=delta,
                           tau=tau, level=level, window=window,
                           master_seed=master_seed)
            for hurst in TABLE_HURSTS for n in TABLE_POWER_NS
            for delta in TABLE_DELTAS for level in TABLE_POWER_LEVELS
        ]
    os.makedirs(out_dir, exist_ok=True)
    # every chunk of every row in one map, read back below in the same
    # order: a power cell's two level rows ask for the same chunk tasks,
    # each power cell shares the draws of the size cell at its (H, n), and
    # every H shares the normals of its embedding size, so each chunk is
    # scored once and each row's normals are drawn once per size
    cells = iter(simulate_cells(
        [limit_tasks(spec) for spec in limit_specs]
        + [experiment_tasks(spec)
           for specs in table_specs.values() for spec in specs]
    ))
    seconds = time.perf_counter() - start
    cv_tables = {spec.hurst: critical_value_table(spec, next(cells))
                 for spec in limit_specs}
    tables = {"table1": [
        {"hurst": hurst, "level": level, "critical_value": cv}
        for hurst, table in cv_tables.items()
        for level, cv in table.quantiles.items()
    ]}
    for name, specs in table_specs.items():
        tables[name] = [
            _aggregate(spec, next(cells),
                       _critical_value(spec, cv_tables[spec.hurst]),
                       seconds).to_csv_row()
            for spec in specs
        ]
    paths = {
        name: write_csv(os.path.join(out_dir, f"{name}.csv"),
                        TABLE_COLUMNS[name], table_rows)
        for name, table_rows in tables.items()
    }
    manifest = {
        "master_seed": master_seed,
        "scale": scale,
        "window": [window.tau1, window.tau2],
        "replications": replications,
        "seconds": round(time.perf_counter() - start, 3),
        "files": {name: os.path.basename(path)
                  for name, path in paths.items()},
    }
    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    with open(paths["manifest"], "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return paths


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return path
