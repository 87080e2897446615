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
"""

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .fgn import STREAM_EXPERIMENT, check_seed
from .limitdist import (
    LimitSimSpec,
    chunk_tasks,
    critical_value_table,
    limit_tasks,
    simulate_cells,
)
from .sntest import TestWindow

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
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0.5, 1), got {self.hurst}")
        if self.n < 4:
            raise ValueError(f"n must be at least 4, got {self.n}")
        if self.replications < 1:
            raise ValueError(
                f"replications must be positive, got {self.replications}"
            )
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not (math.isfinite(self.delta) and math.isfinite(self.c)):
            raise ValueError(
                f"delta and c must be finite, got delta={self.delta}, "
                f"c={self.c}"
            )
        if self.kind == "size" and self.delta != 0.0:
            raise ValueError("size experiments must have delta = 0")
        if self.kind in ("power", "consistency") and self.delta == 0.0:
            raise ValueError(f"{self.kind} experiments must have delta != 0")
        if self.kind == "local_alternative" and self.delta != 0.0:
            raise ValueError(
                "local_alternative experiments take c, not a fixed delta"
            )
        self.window.split_range(self.n)
        check_seed(self.master_seed)

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


def _aggregate(spec, values, cv, seconds):
    count = int((values > cv).sum())
    return ExperimentResult(
        spec=spec,
        rejection_rate=count / spec.replications,
        rejection_count=count,
        critical_value_used=cv,
        mean_statistic=float(values.mean()),
        median_statistic=float(np.median(values)),
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


def _scaled(reps, scale):
    return max(int(round(reps * scale)), 200)


def reproduce_tables(out_dir, scale=1.0, master_seed=0, window=TestWindow()):
    """Emit the four standard study tables as CSV files plus a manifest.

    table1: critical values; table2: empirical size at the 5% level;
    table3/table4: empirical power for tau = 0.5 / 0.25.  ``scale``
    multiplies the replication counts (floor 200) for smoke runs.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    cv_reps = _scaled(10000, scale)
    size_reps = _scaled(10000, scale)
    power_reps = _scaled(5000, scale)

    limit_specs = [
        LimitSimSpec(hurst=hurst, replications=cv_reps, window=window,
                     master_seed=master_seed)
        for hurst in TABLE_HURSTS
    ]
    size_specs = [
        ExperimentSpec(kind="size", hurst=hurst, n=n, replications=size_reps,
                       window=window, master_seed=master_seed)
        for hurst in TABLE_HURSTS for n in TABLE_SIZE_NS
    ]
    # one simulation per power cell serves every level
    power_tables = (("table3", 0.5), ("table4", 0.25))
    power_specs = {
        tau: [
            ExperimentSpec(kind="power", hurst=hurst, n=n,
                           replications=power_reps, delta=delta, tau=tau,
                           window=window, master_seed=master_seed)
            for hurst in TABLE_HURSTS for n in TABLE_POWER_NS
            for delta in TABLE_DELTAS
        ]
        for _, tau in power_tables
    }
    # every chunk of every cell in one map, read back below in the same
    # order; each power cell shares the draws of the size cell at its
    # (H, n), and critical values only enter at aggregation
    cells = iter(simulate_cells(
        [limit_tasks(spec) for spec in limit_specs]
        + [experiment_tasks(spec) for spec in size_specs]
        + [experiment_tasks(spec)
           for specs in power_specs.values() for spec in specs]
    ))

    tables = {}
    cv_tables = {}
    rows = []
    for spec in limit_specs:
        table = critical_value_table(spec, next(cells))
        cv_tables[spec.hurst] = table
        for level in spec.levels:
            rows.append(
                {"hurst": spec.hurst, "level": level,
                 "critical_value": table.critical_value(level)}
            )
    tables["table1"] = write_csv(
        os.path.join(out_dir, "table1.csv"),
        ("hurst", "level", "critical_value"), rows,
    )

    rows = []
    for spec in size_specs:
        cv = cv_tables[spec.hurst].critical_value(spec.level)
        rows.append(
            {"hurst": spec.hurst, "n": spec.n, "level": spec.level,
             "reps": size_reps, "rejection_rate": _rate(next(cells), cv)}
        )
    tables["table2"] = write_csv(
        os.path.join(out_dir, "table2.csv"),
        ("hurst", "n", "level", "reps", "rejection_rate"), rows,
    )

    for name, tau in power_tables:
        rows = []
        for spec in power_specs[tau]:
            values = next(cells)
            for level in TABLE_POWER_LEVELS:
                cv = cv_tables[spec.hurst].critical_value(level)
                rows.append(
                    {"hurst": spec.hurst, "n": spec.n, "delta": spec.delta,
                     "tau": tau, "level": level, "reps": power_reps,
                     "rejection_rate": _rate(values, cv)}
                )
        tables[name] = write_csv(
            os.path.join(out_dir, f"{name}.csv"),
            ("hurst", "n", "delta", "tau", "level", "reps",
             "rejection_rate"), rows,
        )

    manifest = {
        "master_seed": master_seed,
        "scale": scale,
        "window": [window.tau1, window.tau2],
        "replications": {
            "critical_values": cv_reps, "size": size_reps,
            "power": power_reps,
        },
        "seconds": round(time.perf_counter() - start, 3),
        "files": {name: os.path.basename(path)
                  for name, path in tables.items()},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tables["manifest"] = manifest_path
    return tables


def _rate(values, cv):
    return int((values > cv).sum()) / len(values)


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path
