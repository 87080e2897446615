"""Tests of the package as a whole: runtime imports and traced attributes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from _env import child_env
import lrdcp
from lrdcp import _parallel, cli, limitdist, montecarlo, sntest

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "bench" / "tracing.py"


def test_import_leaves_scipy_unloaded():
    code = "import sys, lrdcp, lrdcp.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_leaves_numpy_random_unloaded():
    # the pool loads numpy.random just before forking; importing must not
    code = "import sys, lrdcp, lrdcp.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_leaves_multiprocessing_unloaded():
    # only a map that forks a pool needs it; `lrdcp test --cv` never does
    code = ("import sys, lrdcp, lrdcp.cli; "
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_builds_no_parser():
    # the CLI's parser is built on first use, so importing stays cheap
    code = (
        "import argparse, shutil, sys\n"
        "calls = []\n"
        "size, init = shutil.get_terminal_size, argparse.ArgumentParser.__init__\n"
        "shutil.get_terminal_size = lambda *a, **k: (calls.append('size'), "
        "size(*a, **k))[1]\n"
        "def counting(self, *a, **k):\n"
        "    calls.append('parser')\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import lrdcp, lrdcp.cli\n"
        "print(calls, lrdcp.cli._parser.cache_info().currsize,\n"
        "      'secrets' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # nor does it load secrets, and hashlib with it, for one seed draw
    assert done.stdout.strip() == "[] 0 False"


def test_tables_leave_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma; the Monte Carlo aggregates do not need it
    code = (
        "import sys; from lrdcp import reproduce_tables; "
        f"reproduce_tables({str(tmp_path)!r}, scale=0.002); "
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(LRD_CP_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_wraps_existing_attributes(tmp_path):
    tracing = _load_tracing()
    originals = {
        (module, name): getattr(module, name)
        for module, name in [
            (sntest, "rankdata"), (sntest, "build_profile"),
            (cli, "tn_statistic"), (cli, "read_series"), (cli, "main"),
            (limitdist, "build_sampler"), (limitdist, "sample_fgn_block"),
            (limitdist, "batch_tn_from_values"),
            (montecarlo, "build_sampler"), (montecarlo, "sample_fgn_block"),
            (montecarlo, "batch_tn_from_values"),
            (_parallel, "chunked_map"),
        ]
    }
    tracer = tracing.Tracer(tmp_path / "spool")
    try:
        tracer.install()  # raises AttributeError for a missing attribute
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, name
        # the rank kernel must reach the ranking through sntest.rankdata
        rows = np.random.default_rng(0).normal(size=(3, 40))
        sntest.batch_tn_from_values(rows, 6, 34, use_ranks=True)
        ranked = [s for s in tracer.spans if s["name"] == "sntest.rankdata"]
        assert [span["attrs"] for span in ranked] == [{"rows": 3}]
        # the single-series statistic ranks through sntest.build_profile once
        del tracer.spans[:]
        sntest.tn_statistic(lrdcp.TimeSeries(rows[0]))
        assert [s["name"] for s in tracer.spans] == ["rankstat.build_profile"]
        del tracer.spans[:]
        cli.tn_statistic(lrdcp.TimeSeries(rows[0]))
        outer, inner = sorted(tracer.spans, key=lambda span: span["start"])
        assert (outer["name"], inner["name"]) == (
            "sntest.tn_statistic", "rankstat.build_profile"
        )
        assert inner["parent"] == outer["id"]
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name


def test_bench_tracer_traces_workers_beside_a_cached_pool(tmp_path,
                                                          monkeypatch):
    # the tracer's workers must be forked after it is installed, even when
    # an untraced map has left a pool alive
    monkeypatch.setenv("LRD_CP_THREADS", "2")
    tracing = _load_tracing()
    # a worker unpickles the tracer's chunk wrapper by its module's name
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    # two Hurst values of one M share each row's draw: 1,000 rows either way
    for hursts in [(0.7,), (0.7, 0.8)]:
        cells = [limitdist.chunk_tasks(1000, hurst=hurst, n=50,
                                       window=sntest.TestWindow(),
                                       master_seed=0)
                 for hurst in hursts]
        untraced = limitdist.simulate_cells(cells)
        tracer = tracing.Tracer(tmp_path / f"spool{len(hursts)}")
        tracer.install()
        try:
            traced = limitdist.simulate_cells(cells)
        finally:
            tracer.uninstall()
        assert [cell.tobytes() for cell in traced] == [
            cell.tobytes() for cell in untraced]
        draws = [s for s in tracer.spans
                 if s["name"] == "fgn.sample_fgn_block"]
        assert sum(span["attrs"]["rows"] for span in draws) == 1000
        assert {span["pid"] for span in draws}.isdisjoint({os.getpid()})


def test_public_names_resolve_once():
    assert len(lrdcp.__all__) == len(set(lrdcp.__all__))
    for name in lrdcp.__all__:
        assert getattr(lrdcp, name, None) is not None, name
