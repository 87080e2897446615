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
from dataclasses import dataclass, replace

import numpy as np

from . import _parallel
from .fgn import (
    STREAM_EXPERIMENT,
    FgnParams,
    build_sampler,
    check_seed,
    sample_fgn_block,
)
from .limitdist import LimitSimSpec, critical_values
from .sntest import TestWindow, batch_tn_from_values

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
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
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


def _experiment_chunk(task):
    hurst, n, shift, change_index, tau1, tau2, master_seed, lo, hi = task
    sampler = build_sampler(FgnParams(hurst, n))
    series = sample_fgn_block(
        sampler, master_seed, range(lo, hi), stream=STREAM_EXPERIMENT
    )
    if shift != 0.0:
        series[:, change_index:] += shift
    k_lo, k_hi = TestWindow(tau1, tau2).split_range(n)
    return batch_tn_from_values(series, k_lo, k_hi, use_ranks=True)


def simulate_statistics(spec):
    """Per-replication statistic values under the spec's alternative."""
    change_index = math.floor(spec.n * spec.tau)
    tasks = [
        (
            spec.hurst,
            spec.n,
            spec.shift,
            change_index,
            spec.window.tau1,
            spec.window.tau2,
            spec.master_seed,
            lo,
            hi,
        )
        for lo, hi in _parallel.chunk_ranges(spec.replications)
    ]
    return np.concatenate(_parallel.chunked_map(_experiment_chunk, tasks))


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


def run_experiment(spec, cv_table):
    """Run one experiment against a matching critical-value table."""
    if cv_table.hurst != spec.hurst:
        raise ValueError(
            f"critical-value table is for hurst={cv_table.hurst}, "
            f"experiment wants {spec.hurst}"
        )
    if cv_table.window != spec.window:
        raise ValueError(
            f"critical-value table window {cv_table.window} does not match "
            f"experiment window {spec.window}"
        )
    cv = cv_table.critical_value(spec.level)
    start = time.perf_counter()
    values = simulate_statistics(spec)
    return _aggregate(spec, values, cv, time.perf_counter() - start)


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

    tables = {}
    cv_tables = {}
    rows = []
    for hurst in TABLE_HURSTS:
        spec = LimitSimSpec(
            hurst=hurst, replications=cv_reps, window=window,
            master_seed=master_seed,
        )
        table = critical_values(spec)
        cv_tables[hurst] = table
        for level in spec.levels:
            rows.append(
                {"hurst": hurst, "level": level,
                 "critical_value": table.critical_value(level)}
            )
    tables["table1"] = _write_csv(
        os.path.join(out_dir, "table1.csv"),
        ("hurst", "level", "critical_value"), rows,
    )

    rows = []
    for hurst in TABLE_HURSTS:
        for n in TABLE_SIZE_NS:
            spec = ExperimentSpec(
                kind="size", hurst=hurst, n=n, replications=size_reps,
                level=0.05, window=window, master_seed=master_seed,
            )
            result = run_experiment(spec, cv_tables[hurst])
            rows.append(
                {"hurst": hurst, "n": n, "level": 0.05, "reps": size_reps,
                 "rejection_rate": result.rejection_rate}
            )
    tables["table2"] = _write_csv(
        os.path.join(out_dir, "table2.csv"),
        ("hurst", "n", "level", "reps", "rejection_rate"), rows,
    )

    for name, tau in (("table3", 0.5), ("table4", 0.25)):
        rows = []
        for hurst in TABLE_HURSTS:
            for n in TABLE_POWER_NS:
                for delta in TABLE_DELTAS:
                    spec = ExperimentSpec(
                        kind="power", hurst=hurst, n=n,
                        replications=power_reps, delta=delta, tau=tau,
                        level=TABLE_POWER_LEVELS[0], window=window,
                        master_seed=master_seed,
                    )
                    # one simulation serves every level
                    values = simulate_statistics(spec)
                    for level in TABLE_POWER_LEVELS:
                        cv = cv_tables[hurst].critical_value(level)
                        result = _aggregate(
                            replace(spec, level=level), values, cv, 0.0
                        )
                        rows.append(
                            {"hurst": hurst, "n": n, "delta": delta,
                             "tau": tau, "level": level, "reps": power_reps,
                             "rejection_rate": result.rejection_rate}
                        )
        tables[name] = _write_csv(
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


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path
