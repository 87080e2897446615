"""The benchmark's workloads: inputs, timed operations and output checks.

Every workload builds its inputs from the workload seed, which is also
the master seed handed to lrdcp.  Each operation's output is checked
against an untimed reference pass of the same seed (invariants that hold
at any seed) and, at seed 0 and full size, against ``pins.json``: values
recorded from the seed commit of the package.  Floats are pinned within
``REL_TOL``; counts, flags and CSV text exactly.  Beside the pins sit
sha256 digests of the full statistic arrays: a bit-level drift changes
a digest, which the report shows without failing the run.

The H = 0.7 critical-value table is a fixture (``fixtures/cv_h07.json``)
that ``power_sweep`` and ``test_cli`` load and never re-simulate;
``cv_table`` ties it to the program at seed 0.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import lrdcp  # noqa: E402
from lrdcp import cli, fgn, limitdist, montecarlo, rankstat, sntest  # noqa: E402

if Path(lrdcp.__file__).resolve().parent != SRC / "lrdcp":
    raise ImportError(f"lrdcp imported from {lrdcp.__file__}, not from {SRC}")

CV_FIXTURE = HERE / "fixtures" / "cv_h07.json"
PINS_FILE = HERE / "pins.json"
HURST = 0.7
LEVEL = 0.05
REL_TOL = 1e-9


def sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def compare(observed, pinned, path=""):
    """Differences between an output summary and its pin, as messages."""
    if isinstance(pinned, dict):
        if not isinstance(observed, dict) or set(observed) != set(pinned):
            return [f"{path or 'output'}: keys differ from the pin"]
        problems = []
        for key in pinned:
            problems += compare(observed[key], pinned[key], f"{path}.{key}")
        return problems
    if isinstance(pinned, float):
        if abs(observed - pinned) <= REL_TOL * abs(pinned):
            return []
    elif observed == pinned and type(observed) is type(pinned):
        return []
    shown = "<text>" if isinstance(pinned, str) else repr(pinned)
    return [f"{path}: {observed!r} does not match the pin {shown}"]


def load_cv_table():
    return limitdist.CriticalValueTable.from_json(CV_FIXTURE.read_text())


class Workload:
    """Inputs, one cycle of timed operations, and checks for one workload.

    ``cycle()`` lists (kind, callable) pairs; ``primary`` names the kind
    fastest latency is the end-to-end ``op_s``; ``named`` maps kinds to the
    metric names the report uses for them.  ``pins`` is None except at
    seed 0 and full size, where it holds the entry of ``pins.json``.
    A pass is ``pass_cycles`` cycles: the unit a traced run repeats and
    the least a timed run measures.
    """

    name = None
    primary = None
    named = {}
    pass_cycles = 1

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.small = small
        self.pins = None
        if seed == 0 and not small:
            self.pins = json.loads(PINS_FILE.read_text())[self.name]
        self.checksums = {}
        self.observed = {}

    def prepare(self):
        """Build the inputs; this is the set-up the benchmark times."""

    def reference(self):
        """Untimed reference pass; returns problems found."""
        return []

    def cycle(self):
        raise NotImplementedError

    def check(self, kind, output):
        """Problems with one operation's output (empty when correct)."""
        summary, problems = self._summarize(kind, output)
        self.observed[kind] = summary
        if self.pins is not None:
            problems += compare(summary, self.pins[kind], kind)
        return problems

    def _summarize(self, kind, output):
        raise NotImplementedError

    def pins_from_observed(self):
        """Pins in the ``pins.json`` format, from the last checked outputs."""
        return {**self.observed, "sha256": dict(self.checksums)}

    def checksum_drift(self):
        """Digests that differ from the pinned ones (None without pins)."""
        if self.pins is None:
            return None
        pinned = self.pins["sha256"]
        return {key: value for key, value in self.checksums.items()
                if pinned.get(key) != value}


class CvTable(Workload):
    """``critical_values(LimitSimSpec(hurst=0.7))``: draws plus value kernel."""

    name = "cv_table"
    primary = "table"
    named = {"table": ("cv_table_s", "s", 1.0)}

    def prepare(self):
        if self.small:
            self.spec = limitdist.LimitSimSpec(
                hurst=HURST, grid_size=200, replications=1000,
                master_seed=self.seed)
        else:
            self.spec = limitdist.LimitSimSpec(hurst=HURST, master_seed=self.seed)

    def reference(self):
        values = limitdist.simulate_limit_values(self.spec)
        problems = []
        if values.shape != (self.spec.replications,):
            problems.append(f"sample shape {values.shape}")
        if not np.all(np.isfinite(values)):
            problems.append("non-finite limit statistic")
        ordered = np.sort(values)
        count = len(ordered)
        self.expected = {
            level: float(ordered[min(max(math.ceil((1.0 - level) * count), 1),
                                     count) - 1])
            for level in self.spec.levels
        }
        self.checksums["limit_values"] = sha256(values)
        if self.seed == 0 and not self.small:
            fixture = load_cv_table()
            for level, value in self.expected.items():
                if abs(fixture.critical_value(level) - value) > REL_TOL * abs(value):
                    problems.append(f"fixture quantile {level} disagrees "
                                    f"with the program: {value!r}")
        return problems

    def cycle(self):
        return [("table", lambda: limitdist.critical_values(self.spec))]

    def _summarize(self, kind, table):
        problems = []
        if set(table.quantiles) != set(self.expected):
            problems.append(f"levels {sorted(table.quantiles)}")
        for level, value in table.quantiles.items():
            if value != self.expected.get(level):
                problems.append(f"quantile {level} = {value!r} is not the "
                                f"order statistic {self.expected.get(level)!r}")
        quantiles = {f"{level:g}": value for level, value in table.quantiles.items()}
        return {"quantiles": quantiles}, problems


class PowerSweep(Workload):
    """Power at H=0.7, delta=1, tau=0.5 at three n, against the fixture."""

    name = "power_sweep"
    primary = "sweep"
    named = {"sweep": ("power_sweep_s", "s", 1.0)}

    def prepare(self):
        ns, reps = ((100, 200), 1000) if self.small else ((100, 500, 1000), 5000)
        self.table = load_cv_table()
        self.specs = [
            montecarlo.ExperimentSpec(
                kind="power", hurst=HURST, n=n, replications=reps, delta=1.0,
                tau=0.5, level=LEVEL, master_seed=self.seed)
            for n in ns
        ]

    def reference(self):
        cv = self.table.critical_value(LEVEL)
        problems = []
        self.expected = {}
        for spec in self.specs:
            values = montecarlo.simulate_statistics(spec)
            if not np.all(np.isfinite(values)):
                problems.append(f"non-finite statistic at n={spec.n}")
            self.expected[spec.n] = (int((values > cv).sum()),
                                     float(values.mean()),
                                     float(np.median(values)))
            self.checksums[f"statistics_n{spec.n}"] = sha256(values)
        return problems

    def cycle(self):
        return [("sweep", lambda: [montecarlo.run_experiment(spec, self.table)
                                   for spec in self.specs])]

    def _summarize(self, kind, results):
        cv = self.table.critical_value(LEVEL)
        problems = []
        counts = {}
        for spec, result in zip(self.specs, results):
            count, mean, median = self.expected[spec.n]
            got = (result.rejection_count, result.mean_statistic,
                   result.median_statistic)
            if got != (count, mean, median):
                problems.append(f"n={spec.n}: (count, mean, median) {got} "
                                f"!= reference {(count, mean, median)}")
            if result.critical_value_used != cv:
                problems.append(f"n={spec.n}: critical value {result.critical_value_used!r}")
            if result.rejection_rate != result.rejection_count / spec.replications:
                problems.append(f"n={spec.n}: rate {result.rejection_rate!r}")
            counts[str(spec.n)] = result.rejection_count
        if len(results) != len(self.specs):
            problems.append(f"{len(results)} results for {len(self.specs)} specs")
        return {"rejection_counts": counts}, problems


TABLE_ROWS = {"table1": 12, "table2": 20, "table3": 48, "table4": 48}


class TablesSmall(Workload):
    """``reproduce_tables(scale=0.1)``: 72 short runs, 24 pool starts."""

    name = "tables_small"
    primary = "tables"
    named = {"tables": ("tables_s", "s", 1.0)}

    def prepare(self):
        self.scale = 0.01 if self.small else 0.1
        self.out_root = self.workdir / "tables"
        self.out_root.mkdir(parents=True, exist_ok=True)
        self._runs = 0
        self._first_digest = None

    def cycle(self):
        return [("tables", self._reproduce)]

    def _reproduce(self):
        self._runs += 1
        out_dir = self.out_root / f"run{self._runs}"
        return montecarlo.reproduce_tables(str(out_dir), scale=self.scale,
                                           master_seed=self.seed)

    def _summarize(self, kind, paths):
        manifest_path = Path(paths["manifest"])
        try:
            files = {name: Path(path).read_text()
                     for name, path in sorted(paths.items()) if name != "manifest"}
            manifest = json.loads(manifest_path.read_text())
        finally:
            for path in manifest_path.parent.iterdir():
                path.unlink()
            manifest_path.parent.rmdir()
        manifest.pop("seconds", None)
        problems = []
        if set(files) != set(TABLE_ROWS):
            problems.append(f"tables {sorted(files)}")
        for name, text in files.items():
            rows = list(csv.DictReader(io.StringIO(text)))
            if len(rows) != TABLE_ROWS.get(name):
                problems.append(f"{name}: {len(rows)} rows")
            for row in rows:
                if name == "table1":
                    value = float(row["critical_value"])
                    if not (math.isfinite(value) and value > 0.0):
                        problems.append(f"table1: critical value {value!r}")
                elif not 0.0 <= float(row["rejection_rate"]) <= 1.0:
                    problems.append(f"{name}: rate {row['rejection_rate']}")
        if manifest.get("master_seed") != self.seed or manifest.get("scale") != self.scale:
            problems.append("manifest seed or scale")
        digest = hashlib.sha256("".join(files.values()).encode()).hexdigest()
        self.checksums["csv"] = digest
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            problems.append("tables differ from the first run with this seed")
        return {"files": files, "manifest": manifest}, problems


class TestCli(Workload):
    """``lrdcp test`` in process: --cv calls on n=20,000, default on n=500."""

    name = "test_cli"
    primary = "cv"
    named = {"cv": ("test_cv_ms", "ms", 1e3),
             "default": ("test_default_s", "s", 1.0)}

    def prepare(self):
        self.n = 2000 if self.small else 20000
        self.cv_calls = 5 if self.small else 100
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.shifted_path = self.workdir / "series_shifted.txt"
        self.plain_path = self.workdir / "series_plain.txt"
        shifted = fgn.sample_fgn(
            fgn.build_sampler(fgn.FgnParams(HURST, self.n)), self.seed)
        shifted[self.n // 2:] += 1.0
        np.savetxt(self.shifted_path, shifted, fmt="%.17g")
        plain = fgn.sample_fgn(
            fgn.build_sampler(fgn.FgnParams(HURST, 500)), self.seed)
        np.savetxt(self.plain_path, plain, fmt="%.17g")
        self.default_cv = None
        self.cv_argv = ["test", "--input", str(self.shifted_path),
                        "--hurst", str(HURST), "--cv", str(CV_FIXTURE)]
        self.default_argv = ["test", "--input", str(self.plain_path),
                             "--hurst", str(HURST), "--seed", str(self.seed)]

    def reference(self):
        self.cv = load_cv_table().critical_value(LEVEL)
        shifted = rankstat.TimeSeries(np.loadtxt(self.shifted_path))
        self.expected_cv_call = sntest.tn_statistic(shifted, critical_value=self.cv)
        self.expected_default = sntest.tn_statistic(
            rankstat.TimeSeries(np.loadtxt(self.plain_path)))
        self.checksums["profile_shifted"] = sha256(self.expected_cv_call.profile)
        self.checksums["profile_plain"] = sha256(self.expected_default.profile)
        if not math.isfinite(self.expected_cv_call.statistic):
            return ["non-finite statistic"]
        return []

    def cycle(self):
        return ([("default", lambda: self._call(self.default_argv))]
                + [("cv", lambda: self._call(self.cv_argv))] * self.cv_calls)

    @staticmethod
    def _call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError(f"lrdcp test exited with {code}")
        return json.loads(out.getvalue())

    def _summarize(self, kind, payload):
        summary = {key: payload[key] for key in ("statistic", "argmax_k", "reject")}
        cv = payload["critical_value"]
        expected = self.expected_cv_call if kind == "cv" else self.expected_default
        problems = []
        if (payload["statistic"], payload["argmax_k"]) != (expected.statistic,
                                                           expected.argmax_k):
            problems.append(f"payload ({payload['statistic']!r}, "
                            f"{payload['argmax_k']}) != tn_statistic "
                            f"({expected.statistic!r}, {expected.argmax_k})")
        if payload["reject"] is not (payload["statistic"] > cv):
            problems.append("reject disagrees with statistic > critical value")
        if not (math.isfinite(cv) and cv > 0.0):
            problems.append(f"critical value {cv!r}")
        if kind == "cv":
            if cv != self.cv or payload["cv_source"] != "file":
                problems.append(f"critical value {cv!r} is not the fixture's")
        else:
            summary["critical_value"] = cv
            if self.default_cv is None:
                self.default_cv = cv
            if cv != self.default_cv or payload["cv_source"] != "simulated":
                problems.append(f"simulated critical value {cv!r} changed "
                                f"between calls with one seed")
        return summary, problems


WORKLOADS = {cls.name: cls for cls in (CvTable, PowerSweep, TablesSmall, TestCli)}


class Recorder:
    """Operations attempted and failed, latencies per kind, first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {}
        self.problems = []

    def record(self, kind, seconds, problems, timed):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {problems[0]}")
        if timed:
            self.latencies.setdefault(kind, []).append(seconds)


def execute(workload, kind, func, recorder, timed=True, tracer=None, op_id=None):
    """Run and check one operation; returns its wall seconds.

    An operation that raises, or whose check raises, is a failed
    operation: the loop goes on.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            output = func()
        else:
            tracer.op_id = op_id
            with tracer.span(f"op.{workload.name}.{kind}"):
                output = func()
    except Exception as exc:
        seconds = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    else:
        seconds = time.perf_counter() - start
        try:
            problems = workload.check(kind, output)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    recorder.record(kind, seconds, problems, timed)
    return seconds


def run_cycle(workload, recorder, timed=True, tracer=None, label="op"):
    """One cycle of the workload's operations; returns summed op seconds."""
    return sum(
        execute(workload, kind, func, recorder, timed, tracer, f"{label}.{index}")
        for index, (kind, func) in enumerate(workload.cycle())
    )


def run_reference(workload, recorder):
    """The reference pass counts as one checked operation."""
    try:
        problems = workload.reference()
    except Exception as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    recorder.record("reference", 0.0, problems, timed=False)
