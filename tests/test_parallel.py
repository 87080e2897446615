"""Tests for the worker count and the chunked map."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrdcp
from lrdcp import _parallel


def _square(x):
    return x * x


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["0", "-3", "many", "1.5"])
    def test_rejects_values_below_one_or_non_integer(self, value, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", value)
        with pytest.raises(ValueError) as excinfo:
            _parallel.worker_count()
        assert str(excinfo.value) == (
            f"LRD_CP_THREADS must be an integer >= 1, got {value!r}"
        )

    def test_explicit_count_is_used(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "3")
        assert _parallel.worker_count() == 3

    def test_default_is_affinity_size(self, monkeypatch):
        monkeypatch.delenv("LRD_CP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _parallel.worker_count() == 3

    def test_default_without_affinity_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("LRD_CP_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _parallel.worker_count() == 6


class TestChunkedMap:
    def test_pool_preserves_task_order(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "2")
        tasks = list(range(7))
        assert _parallel.chunked_map(_square, tasks) == [t * t for t in tasks]

    def test_workers_inherit_the_draw_modules(self):
        # a fresh parent that has imported only lrdcp; each probe, run in
        # place of the chunk kernel, reports what its worker holds before
        # it runs any code of its own
        env = dict(os.environ, LRD_CP_THREADS="2")
        src = str(Path(lrdcp.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "from lrdcp import limitdist\n"
            "from lrdcp.sntest import TestWindow\n"
            "def probe(tasks):\n"
            "    return [['numpy.random' in sys.modules]] * len(tasks)\n"
            "limitdist.simulate_chunk = probe\n"
            "tasks = limitdist.chunk_tasks(\n"
            "    1000, hurst=0.7, n=50, window=TestWindow(), master_seed=0)\n"
            "print(all(limitdist.simulate_cells([tasks])[0]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"
