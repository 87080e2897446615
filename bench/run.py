"""Benchmark of lrdcp: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload test_cli --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``cv_table``: one default H=0.7 critical-value table (fGn draws and the
  value kernel, no ranking);
- ``power_sweep``: power at H=0.7, delta=1, tau=0.5, 5,000 replications
  at n = 100, 500, 1000 against the fixture table (rank kernel);
- ``tables_small``: ``reproduce_tables(scale=0.1)`` (pool dispatch and
  sampler set-up, both kernels);
- ``test_cli``: a closed loop of in-process ``lrdcp test --cv`` calls on
  an n=20,000 series, each cycle of 100 led by one default call (limit-law
  simulated per call) on an n=500 series.

``BENCHMARK.json`` gates ``power_sweep``, ``tables_small`` and
``test_cli``.  ``cv_table`` runs the same way but is not gated: its
run-to-run spread was the widest, and its layers (draws, value kernel,
pool) are also measured by ``tables_small`` and the default test call.

Load comes from this one process as one closed-loop client.  Pool
workers: one per CPU in ``os.sched_getaffinity(0)``, set through
``LRD_CP_THREADS``.

``--trace 0`` times the workload for ``--seconds`` after a reference pass
and a discarded warm-up cycle, and reports the end-to-end metrics:

- ``op_s``: wall seconds of the fastest primary operation in the run.
  On a shared host the machine's speed changes in phases of seconds to
  minutes, which moved the run median of ``test_cli`` by over 20%
  between runs of the same code; the fastest operation tracks the
  program's cost at the host's quiet speed.  Medians are in the report
  under the workload-named latencies;
- ``setup_s``: median over fresh processes of the time from process start
  to ready inputs (``import lrdcp`` plus building the inputs);
- ``peak_rss_mb``: peak RSS of this process plus that of its largest
  child (forked pool workers share most pages with this process, so a
  sum over workers would count them twice).

``--trace 1`` alternates untraced and traced passes for ``--seconds``,
then times one untraced pass with a single worker, and reports the
per-layer metrics of ``tracing.layer_metrics`` plus ``parallel.serial_s``
(that single-worker pass), ``setup.*`` and ``trace.*`` (traced minus
untraced pass time).  Layer times are busy seconds summed over processes;
the report's ``blocking_path`` divides pool work by the worker count so
that it adds up to the operations' wall time.

Every operation's output is checked (see ``workloads.py``); a failed
check or an exception counts as a failed operation.  The run prints a
report (provenance, every metric with its unit and sample count, the
workload-named latencies, checksums, problems), then, as the last line, the
JSON result.  The report and, with tracing, every span are also written
to ``.bench_out/``.  Without lrdcp's sources beside ``bench/`` the run
exits with status 2 and prints no result.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cv_table", "power_sweep", "tables_small", "test_cli")
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def percentile(values, q):
    """Nearest-rank percentile q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, workers):
    import lrdcp
    import numpy
    import scipy

    return {
        "lrdcp": lrdcp.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workers": workers,
        "LRD_CP_THREADS": os.environ["LRD_CP_THREADS"],
        "start_method": multiprocessing.get_start_method(),
        "workload_seed": args.seed,
        "seconds": args.seconds,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(part) for part in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to others between two reads."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def measure_setup(name, seed, workdir):
    """Median set-up over fresh processes, and each probe's parts."""
    walls, imports, inputs = [], [], []
    for index in range(SETUP_PROBES):
        command = [sys.executable, str(HERE / "setup_probe.py"), name,
                   str(seed), str(workdir / f"probe{index}")]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        probe = json.loads(line)
        imports.append(probe["import_s"])
        inputs.append(probe["inputs_s"])
    return {"setup_s": walls, "import_s": imports, "inputs_s": inputs}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def run_pass(workloads, workload, recorder, tracer=None, label="pass"):
    return sum(
        workloads.run_cycle(workload, recorder, timed=tracer is None,
                            tracer=tracer, label=f"{label}.{cycle}")
        for cycle in range(workload.pass_cycles)
    )


def timed_run(workloads, workload, recorder, seconds):
    workloads.run_reference(workload, recorder)
    workloads.run_cycle(workload, recorder, timed=False)  # warm-up
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < 1 or time.perf_counter() < deadline:
        run_pass(workloads, workload, recorder)
        passes += 1


def traced_run(workloads, tracing, workload, recorder, seconds, spool):
    workloads.run_reference(workload, recorder)
    workloads.run_cycle(workload, recorder, timed=False)  # warm-up
    workers = os.environ["LRD_CP_THREADS"]
    if not tracing.fork_workers():
        # workers would not inherit the wrappers: trace with one worker
        os.environ["LRD_CP_THREADS"] = "1"
    untraced, traced, samples, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_pass(workloads, workload, recorder))
        tracer = tracing.Tracer(spool)
        tracer.install()
        try:
            traced.append(run_pass(workloads, workload, recorder, tracer,
                                   label=f"pass{len(traced)}"))
        finally:
            tracer.uninstall()
        samples.append(tracing.layer_metrics(tracer.spans))
        spans.append(tracer.spans)
    os.environ["LRD_CP_THREADS"] = "1"
    try:
        serial = run_pass(workloads, workload, recorder)
    finally:
        os.environ["LRD_CP_THREADS"] = workers
    layers = tracing.median_metrics(samples)
    layers["parallel.serial_s"] = serial
    layers["trace.untraced_s"] = statistics.median(untraced)
    layers["trace.traced_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.traced_s"] - layers["trace.untraced_s"]
    layers["trace.spans"] = len(spans[0])
    path = tracing.blocking_path(spans[0])
    return {
        "layers": layers,
        "trace_workers": "pool" if tracing.fork_workers() else "one worker "
                         "(pool workers are not forked, so cannot be traced)",
        "counts_agree_across_passes": tracing.counts_agree(samples),
        "fft_lengths_rows": tracing.fft_lengths(spans[0]),
        "blocking_path_s": path,
        "blocking_path_sum_s": sum(path.values()),
        "passes_s": {"untraced": untraced, "traced": traced},
        "spans": spans,
    }


def end_to_end(workload, recorder, setup):
    latencies = recorder.latencies.get(workload.primary, [])
    return {
        "op_s": (min(latencies), "s", len(latencies)),
        "setup_s": (statistics.median(setup["setup_s"]), "s", len(setup["setup_s"])),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def named_latencies(workload, recorder):
    """Latencies under the workload-specific metric names, with counts."""
    named = {}
    for kind, (name, unit, scale) in workload.named.items():
        values = recorder.latencies.get(kind, [])
        if not values:
            continue
        entry = {"unit": unit, "samples": len(values),
                 "p50": statistics.median(values) * scale}
        # a percentile is reported only with ten samples beyond it
        if len(values) >= 100:
            entry["p90"] = percentile(values, 90) * scale
        named[name] = entry
    return named


def main(argv=None):
    args = parse_args(argv)
    workers = len(os.sched_getaffinity(0))
    os.environ["LRD_CP_THREADS"] = str(workers)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import lrdcp from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs")
        workload.prepare()
        recorder = workloads.Recorder()
        ticks = cpu_ticks()
        if args.trace:
            detail = traced_run(workloads, tracing, workload, recorder,
                                args.seconds, workdir / "spool")
            metrics = {name: (value, unit_of(name), 1)
                       for name, value in detail.pop("layers").items()}
            metrics["setup.import_s"] = (statistics.median(setup["import_s"]), "s",
                                         len(setup["import_s"]))
            metrics["setup.inputs_s"] = (statistics.median(setup["inputs_s"]), "s",
                                         len(setup["inputs_s"]))
        else:
            timed_run(workloads, workload, recorder, args.seconds)
            metrics = end_to_end(workload, recorder, setup)
            detail = {"named": named_latencies(workload, recorder)}
        detail["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = detail.pop("spans", None)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, workers),
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in metrics.items()},
        **detail,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "failed_share": recorder.failed / recorder.attempted,
        "problems": recorder.problems,
        "sha256": workload.checksums,
        "sha256_drift_from_pins": workload.checksum_drift(),
        "setup_probes_s": setup,
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {**report, "latencies_s": recorder.latencies, "spans": spans}) + "\n")
    print(json.dumps(report, indent=2))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit:6s} samples={samples}")
    print(json.dumps({
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
