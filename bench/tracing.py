"""Spans around calls into lrdcp, recorded from outside the package.

``Tracer.install`` replaces the module attributes through which lrdcp
looks up its own layers (``limitdist.sample_fgn_block``,
``montecarlo.simulate_statistics``, ``numpy.fft.irfft`` and so on) with
wrappers that record a span per call; ``uninstall`` restores them.  No
file of the package changes.

A span holds a name, start and end (``time.perf_counter``, a monotonic
clock shared by all processes on the machine), the id of its parent span,
the id of the operation it serves, the process id, and the counts known
at the call boundary.  Spans stay in memory until the run ends.

Pool workers are forked inside ``_parallel.chunked_map`` while the
wrappers are installed, so they inherit them.  Each chunk runs under a
``ChunkTask`` that opens a ``parallel.chunk`` span and, in a worker,
appends the chunk's spans to a per-process spool file before returning
its result; the parent reads the spool when the map returns.
"""

import contextlib
import functools
import json
import multiprocessing
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from lrdcp import _parallel, cli, limitdist, montecarlo, sntest

# the installed tracer; pool workers reach their inherited copy through it
_active = None

F64 = 8


def fork_workers():
    """Whether pool workers inherit the wrappers (fork start method)."""
    return multiprocessing.get_start_method() == "fork"


def _fgn_block_counts(sampler, master_seed, replications, stream=0):
    rows = len(replications)
    m = sampler.embedding_size
    # normals (2M), spectral amplitudes (M+1 complex) and the irfft
    # output (2M) per row, plus the 2M square-rooted weights per call
    return {
        "rows": rows,
        "fft_length": 2 * m,
        "bytes": rows * F64 * (2 * m + 2 * (m + 1) + 2 * m) + F64 * 2 * m,
    }


def _irfft_counts(a, n=None, axis=-1, norm=None, out=None):
    a = np.asarray(a)
    length = n if n is not None else 2 * (a.shape[axis] - 1)
    return {"points": (a.size // a.shape[axis]) * length}


def _batch_counts(values, k_lo, k_hi, use_ranks):
    rows, n = np.shape(values)
    splits = k_hi - k_lo + 1
    # ranks (rank kernel only), the value prefix sum, the profile d, its
    # five moment arrays, and the per-split arrays dk, first, second,
    # denominator and G_n
    per_row = (n if use_ranks else 0) + n + 6 * (n + 1) + 5 * splits
    return {"rows": rows, "n": n, "bytes": rows * F64 * per_row}


def _rank_counts(values, *args, **kwargs):
    return {"rows": int(np.shape(values)[0])}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spans = []
        self.op_id = None
        self._stack = []
        self._serial = 0
        self._owner = os.getpid()
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        self._serial += 1
        span_id = f"{os.getpid()}:{self._serial}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": self.op_id, "pid": os.getpid(),
                "attrs": attrs,
            })

    def _wrap(self, module, attr, name, counts=None):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = counts(*args, **kwargs) if counts else {}
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def _wrap_chunked_map(self):
        original = _parallel.chunked_map
        tracer = self

        def traced_map(func, tasks):
            workers = min(_parallel.worker_count(), len(tasks))
            with tracer.span("parallel.chunked_map", tasks=len(tasks),
                             workers=workers):
                result = original(ChunkTask(func), tasks)
            tracer._collect_spool()
            return result

        _parallel.chunked_map = traced_map
        self._patches.append((_parallel, "chunked_map", original))

    def install(self):
        global _active
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for module in (limitdist, montecarlo):
            self._wrap(module, "build_sampler", "fgn.build_sampler")
            self._wrap(module, "sample_fgn_block", "fgn.sample_fgn_block",
                       _fgn_block_counts)
            self._wrap(module, "batch_tn_from_values",
                       "sntest.batch_tn_from_values", _batch_counts)
        self._wrap(np.fft, "irfft", "fgn.irfft", _irfft_counts)
        self._wrap(sntest, "rankdata", "sntest.rankdata", _rank_counts)
        self._wrap(sntest, "build_profile", "rankstat.build_profile")
        self._wrap(cli, "tn_statistic", "sntest.tn_statistic")
        self._wrap(cli, "read_series", "cli.read_series")
        self._wrap(cli, "main", "cli.main")
        self._wrap(limitdist, "simulate_limit_values",
                   "limitdist.simulate_limit_values")
        for module in (limitdist, montecarlo, cli):
            self._wrap(module, "critical_values", "limitdist.critical_values")
        self._wrap(montecarlo, "simulate_statistics",
                   "montecarlo.simulate_statistics")
        self._wrap(montecarlo, "run_experiment", "montecarlo.run_experiment")
        self._wrap(montecarlo, "reproduce_tables",
                   "montecarlo.reproduce_tables")
        self._wrap_chunked_map()
        _active = self

    def uninstall(self):
        global _active
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        _active = None

    def in_worker(self):
        return os.getpid() != self._owner

    def flush_worker_spans(self):
        path = self.spool_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def _collect_spool(self):
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path) as handle:
                self.spans.extend(json.loads(line) for line in handle)
            path.unlink()


class ChunkTask:
    """Picklable chunk function that records a span where the chunk runs."""

    def __init__(self, func):
        self.func = func

    def __call__(self, task):
        tracer = _active
        if tracer.in_worker():
            # drop what the fork copied and what earlier chunks flushed
            tracer.spans = []
        with tracer.span("parallel.chunk"):
            result = self.func(task)
        if tracer.in_worker():
            tracer.flush_worker_spans()
        return result


def self_times(spans):
    """Span id -> duration minus the same-process children's durations."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[(span["parent"], span["pid"])] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - covered[(span["id"], span["pid"])]
        for span in spans
    }


def layer_metrics(spans):
    """Per-layer counts and busy seconds (summed over processes)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum((s["end"] - s["start"] for s in by_name[name]), 0.0)

    def self_s(name):
        return sum((own[s["id"]] for s in by_name[name]), 0.0)

    def attr(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    maps = by_name["parallel.chunked_map"]
    busy = total("parallel.chunk")
    offered = sum((s["attrs"]["workers"] * (s["end"] - s["start"]) for s in maps), 0.0)
    return {
        "fgn.build_sampler.calls": calls("fgn.build_sampler"),
        "fgn.build_sampler.s": total("fgn.build_sampler"),
        "fgn.sample_fgn_block.rows": attr("fgn.sample_fgn_block", "rows"),
        "fgn.sample_fgn_block.self_s": self_s("fgn.sample_fgn_block"),
        "fgn.irfft.s": total("fgn.irfft"),
        "fgn.irfft.points": attr("fgn.irfft", "points"),
        "fgn.bytes_computed": attr("fgn.sample_fgn_block", "bytes"),
        "sntest.batch_tn_from_values.calls": calls("sntest.batch_tn_from_values"),
        "sntest.batch_tn_from_values.rows": attr("sntest.batch_tn_from_values", "rows"),
        "sntest.batch_tn_from_values.self_s": self_s("sntest.batch_tn_from_values"),
        "sntest.rankdata.s": total("sntest.rankdata"),
        "sntest.tn_statistic.calls": calls("sntest.tn_statistic"),
        "sntest.tn_statistic.self_s": self_s("sntest.tn_statistic"),
        "sntest.bytes_computed": attr("sntest.batch_tn_from_values", "bytes"),
        "rankstat.build_profile.s": total("rankstat.build_profile"),
        "limitdist.simulate_limit_values.s": total("limitdist.simulate_limit_values"),
        "montecarlo.simulate_statistics.calls": calls("montecarlo.simulate_statistics"),
        "montecarlo.simulate_statistics.s": total("montecarlo.simulate_statistics"),
        "parallel.chunked_map.calls": len(maps),
        "parallel.pool_starts": sum(1 for s in maps if s["attrs"]["workers"] > 1),
        "parallel.tasks": attr("parallel.chunked_map", "tasks"),
        "parallel.workers": max((s["attrs"]["workers"] for s in maps), default=0),
        "parallel.map_s": total("parallel.chunked_map"),
        "parallel.chunk_busy_s": busy,
        "parallel.idle_s": offered - busy,
        "cli.main.calls": calls("cli.main"),
        "cli.read_series.s": total("cli.read_series"),
        "cli.main.self_s": self_s("cli.main"),
    }


def fft_lengths(spans):
    """Distinct circulant sizes 2M drawn, with the rows drawn at each."""
    rows = defaultdict(int)
    for span in spans:
        if span["name"] == "fgn.sample_fgn_block":
            rows[span["attrs"]["fft_length"]] += span["attrs"]["rows"]
    return {str(length): rows[length] for length in sorted(rows)}


def blocking_path(spans):
    """Seconds each span name adds to the operations' wall time.

    Spans in the benchmark process count with their self time.  Work a
    chunked map hands to W pool workers counts at 1/W of its self time,
    and the map's unused worker time (W x map wall - chunk busy time) at
    1/W under ``parallel.idle``; the parts sum to the operations' wall.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    owner = next(s["pid"] for s in spans if s["parent"] is None)
    path = defaultdict(float)
    remote = defaultdict(list)
    for span in spans:
        if span["pid"] == owner:
            path[span["name"]] += own[span["id"]]
            continue
        anchor = span
        while by_id[anchor["parent"]]["pid"] != owner:
            anchor = by_id[anchor["parent"]]
        remote[anchor["parent"]].append(span)
    for map_id, worker_spans in remote.items():
        mapped = by_id[map_id]
        workers = mapped["attrs"]["workers"]
        wall = mapped["end"] - mapped["start"]
        # the map's self time is its whole wall: its chunks ran elsewhere
        path[mapped["name"]] -= wall
        busy = 0.0
        for span in worker_spans:
            path[span["name"]] += own[span["id"]] / workers
            if span["name"] == "parallel.chunk":
                busy += span["end"] - span["start"]
        path["parallel.idle"] += (workers * wall - busy) / workers
    return dict(sorted(path.items(), key=lambda item: -item[1]))


def median_metrics(samples):
    """Per-key median over per-pass metric dicts (counts must agree)."""
    merged = {}
    for key in samples[0]:
        values = [sample[key] for sample in samples]
        if isinstance(values[0], int):
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    return merged


def counts_agree(samples):
    """True when every integer count is identical across traced passes."""
    return all(
        len({sample[key] for sample in samples}) == 1
        for key, value in samples[0].items() if isinstance(value, int)
    )

