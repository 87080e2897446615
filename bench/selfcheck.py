"""Quick self-check of the benchmark itself, at reduced size.

For each workload, at seed 0 and reduced size:

1. the reference pass and one cycle must pass their invariant checks;
2. pinned to the outputs just seen, a second cycle must pass;
3. with one pinned value corrupted, a cycle must report failed
   operations, not crash and not pass;
4. with a corrupted sha256 beside correct pins, a cycle must pass and
   the drift must show;
5. a traced cycle must record the workload's layers, and its blocking
   path must add up to the operations' wall time.

It also checks that an operation that raises counts as a failure, and
that ``run.py`` at full size prints a last line in the result format
with exactly the metric names and units of ``BENCHMARK.json``.

Usage, from the repository root: python3 bench/selfcheck.py
Exit status 0 when every check holds.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads  # first: it puts the checkout's src/ on sys.path
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layers each workload must reach, as (metric, must be nonzero)
REACHED = {
    "cv_table": {"fgn.sample_fgn_block.rows": True, "sntest.rankdata.s": False,
                 "limitdist.simulate_limit_values.s": True,
                 "parallel.pool_starts": True},
    "power_sweep": {"sntest.rankdata.s": True,
                    "montecarlo.simulate_statistics.calls": True,
                    "limitdist.simulate_limit_values.s": False},
    "tables_small": {"montecarlo.simulate_statistics.calls": True,
                     "sntest.rankdata.s": True,
                     "limitdist.simulate_limit_values.s": True},
    "test_cli": {"cli.main.calls": True, "cli.read_series.s": True,
                 "rankstat.build_profile.s": True,
                 "sntest.tn_statistic.calls": True},
}


def corrupt(pins):
    """Copy of ``pins`` with its first pinned output value changed."""
    bad = copy.deepcopy(pins)

    def walk(node):
        for key in sorted(node):
            value = node[key]
            if key == "sha256":
                continue
            if isinstance(value, dict):
                if walk(value):
                    return True
                continue
            if isinstance(value, bool):
                node[key] = not value
            elif isinstance(value, float):
                node[key] = value * (1.0 + 1e-6)
            elif isinstance(value, int):
                node[key] = value + 1
            elif isinstance(value, str):
                node[key] = value + "0"
            else:
                continue
            return True
        return False

    walk(bad)
    return bad


def check_workload(cls, workdir, failures):
    def expect(condition, message):
        if not condition:
            failures.append(f"{cls.name}: {message}")

    workload = cls(0, workdir, small=True)
    workload.prepare()
    recorder = workloads.Recorder()
    workloads.run_reference(workload, recorder)
    workloads.run_cycle(workload, recorder)
    expect(recorder.failed == 0, f"unpinned cycle failed: {recorder.problems}")

    pins = workload.pins_from_observed()
    workload.pins = pins
    recorder = workloads.Recorder()
    workloads.run_cycle(workload, recorder)
    expect(recorder.failed == 0, f"self-pinned cycle failed: {recorder.problems}")
    expect(workload.checksum_drift() == {}, "checksums drift from themselves")

    workload.pins = corrupt(pins)
    recorder = workloads.Recorder()
    workloads.run_cycle(workload, recorder)
    expect(recorder.failed > 0, "a corrupted pin passed")
    expect(recorder.failed <= recorder.attempted, "more failures than attempts")

    drifted = copy.deepcopy(pins)
    key = sorted(drifted["sha256"])[0]
    drifted["sha256"][key] = "0" * 64
    workload.pins = drifted
    recorder = workloads.Recorder()
    workloads.run_cycle(workload, recorder)
    expect(recorder.failed == 0, "a checksum drift failed the run")
    expect(key in (workload.checksum_drift() or {}), "checksum drift not shown")

    recorder = workloads.Recorder()
    workloads.execute(workload, "boom", lambda: 1 / 0, recorder)
    expect((recorder.attempted, recorder.failed) == (1, 1),
           "a raising operation was not counted as failed")

    workload.pins = None
    tracer = tracing.Tracer(Path(workdir) / "spool")
    tracer.install()
    try:
        recorder = workloads.Recorder()
        workloads.run_cycle(workload, recorder, timed=False, tracer=tracer)
    finally:
        tracer.uninstall()
    expect(recorder.failed == 0, f"traced cycle failed: {recorder.problems}")
    layers = tracing.layer_metrics(tracer.spans)
    for metric, nonzero in REACHED[cls.name].items():
        expect(bool(layers[metric]) == nonzero,
               f"{metric} = {layers[metric]} on a traced cycle")
    ops_wall = sum(span["end"] - span["start"] for span in tracer.spans
                   if span["parent"] is None)
    path_total = sum(tracing.blocking_path(tracer.spans).values())
    expect(abs(path_total - ops_wall) < 1e-6 * max(ops_wall, 1.0),
           f"blocking path {path_total} != operations wall {ops_wall}")


def check_result_format(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cv_table",
             "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            failures.append(f"run.py --trace {trace} exited {done.returncode}: "
                            f"{done.stderr.strip()[-300:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0:
            failures.append(f"run.py --trace {trace} reported failures")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            failures.append(f"--trace {trace} metrics differ from BENCHMARK.json "
                            f"{key}: {sorted(set(emitted) ^ set(expected))}")


def main():
    os.environ["LRD_CP_THREADS"] = str(len(os.sched_getaffinity(0)))
    failures = []
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=ROOT / ".bench_out"))
    try:
        for cls in workloads.WORKLOADS.values():
            check_workload(cls, workdir / cls.name, failures)
            print(f"{cls.name}: checked", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_result_format(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
