"""Tests for the worker count, the chunked map and its pool's lifetime."""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from _env import child_env
from lrdcp import _parallel, limitdist, sntest


def _square(x):
    return x * x


def _pid(task):
    # long enough that both workers of a pool take tasks
    time.sleep(0.02)
    return os.getpid()


def _other_pid(task):
    return _pid(task)


def _cube(x):
    return x * x * x


def _fail_or_sleep(task):
    # task 0 fails; tasks from 10 on take a second each
    if task == 0:
        raise ValueError("task 0 failed")
    time.sleep(1.0 if task >= 10 else 0.0)
    return task


def _run(*args, timeout=60):
    """Run the interpreter on ``args`` with two workers; its outcome."""
    return subprocess.run(
        [sys.executable, *args], env=child_env(LRD_CP_THREADS="2"),
        capture_output=True, text=True, timeout=timeout,
    )


def _run_script(code):
    """Run ``code`` with two workers in a fresh interpreter."""
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
    # nothing, such as a pool's failing __del__ at exit, goes to stderr
    assert done.stderr == ""
    return done.stdout


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
        assert _run_script(code).strip() == "True"

    # prints the sha256 of two limit-law cells' values, H 0.7 and 0.8
    CELLS = (
        "import hashlib\n"
        "from lrdcp import limitdist\n"
        "from lrdcp.sntest import TestWindow\n"
        "cells = [limitdist.chunk_tasks(1000, hurst=h, n=50,\n"
        "                               window=TestWindow(), master_seed=0)\n"
        "         for h in (0.7, 0.8)]\n"
        "values = limitdist.simulate_cells(cells)\n"
        "print(hashlib.sha256(b''.join(v.tobytes() for v in values))"
        ".hexdigest())\n"
    )

    def _serial_digest(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "1")
        cells = [limitdist.chunk_tasks(1000, hurst=h, n=50,
                                       window=sntest.TestWindow(),
                                       master_seed=0)
                 for h in (0.7, 0.8)]
        values = limitdist.simulate_cells(cells)
        return hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest()

    def test_imports_where_the_os_cannot_fork(self, monkeypatch):
        # os.register_at_fork exists on Unix only
        code = (
            "import os\n"
            "del os.register_at_fork\n"
            "os.environ['LRD_CP_THREADS'] = '1'\n"
        ) + self.CELLS
        assert _run_script(code).strip() == self._serial_digest(monkeypatch)

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_same_bits_under_every_start_method(self, method, monkeypatch):
        # spawn is the default on Windows and macOS, forkserver on Linux
        # from Python 3.14; each then imports the package afresh
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        code = (
            "import multiprocessing\n"
            f"multiprocessing.set_start_method({method!r}, force=True)\n"
        ) + self.CELLS
        assert _run_script(code).strip() == self._serial_digest(monkeypatch)


def _worker_gone(pid):
    """Whether ``pid`` has exited; a zombie awaiting its reaper counts."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            return any(line.split()[:2] == ["State:", "Z"] for line in handle)
    except FileNotFoundError:
        return True


class TestWarmPool:
    TASKS = list(range(8))
    # a fresh interpreter whose pid() reports the worker that ran a task
    SCRIPT = (
        "import json, os, sys, time\n"
        "from lrdcp import _parallel\n"
        "def pid(task):\n"
        "    time.sleep(0.02)\n"
        "    return os.getpid()\n"
        "def pids():\n"
        "    return set(_parallel.chunked_map(pid, list(range(8))))\n"
    )

    def test_maps_of_one_function_share_the_workers(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "2")
        pids = [set(_parallel.chunked_map(_pid, self.TASKS)) for _ in range(3)]
        assert len(set().union(*pids)) <= 2
        assert os.getpid() not in pids[0]

    def test_a_new_worker_count_or_function_forks_a_new_pool(self,
                                                             monkeypatch):
        tasks = limitdist.chunk_tasks(1300, hurst=0.7, n=40,
                                      window=sntest.TestWindow(),
                                      master_seed=4)
        pools, values = [], []
        for threads in ["2", "1", "2"]:
            monkeypatch.setenv("LRD_CP_THREADS", threads)
            pools.append(set(_parallel.chunked_map(_pid, self.TASKS)))
        pools.append(set(_parallel.chunked_map(_other_pid, self.TASKS)))
        for threads in ["2", "1", "2"]:
            monkeypatch.setenv("LRD_CP_THREADS", threads)
            values.append(limitdist.simulate_cells([tasks])[0].tobytes())
        one, serial, two, other = pools
        assert serial == {os.getpid()}
        assert not one & two and not two & other
        # maps of simulate_chunk in and out of process agree bit for bit
        assert len(set(values)) == 1

    def test_a_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # a map with more tasks than the pool has workers, below the cap,
        # forks a larger pool; a map with fewer tasks reuses it
        monkeypatch.setenv("LRD_CP_THREADS", "4")
        _parallel._close_pool()
        sizes = []
        for count in [2, 3, 2]:
            assert _parallel.chunked_map(_square, list(range(count))) == [
                t * t for t in range(count)
            ]
            sizes.append(len(multiprocessing.active_children()))
        assert sizes == [2, 3, 3]

    def test_threads_take_turns_on_the_pool(self, monkeypatch):
        # maps of two functions from six threads: none may close the pool
        # under another's map
        monkeypatch.setenv("LRD_CP_THREADS", "3")
        tasks = list(range(12))
        results = []

        def run(func):
            for _ in range(4):
                results.append(_parallel.chunked_map(func, tasks)
                               == [func(t) for t in tasks])

        threads = [threading.Thread(target=run, args=(func,), daemon=True)
                   for func in [_square, _cube] * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == [True] * 24

    def test_a_failed_map_leaves_the_next_one_right(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "2")
        with pytest.raises(ValueError, match="task 0 failed"):
            _parallel.chunked_map(_fail_or_sleep, [0, 1, 2, 3])
        assert _parallel.chunked_map(_fail_or_sleep, [1, 2, 3]) == [1, 2, 3]

    def test_an_interrupted_map_leaves_no_tasks_behind(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "2")

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(KeyboardInterrupt):
                _parallel.chunked_map(_fail_or_sleep, [10, 11, 12, 13, 14])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        start = time.perf_counter()
        # the interrupted map's one-second tasks must not hold this one up
        assert _parallel.chunked_map(_fail_or_sleep, [1, 2]) == [1, 2]
        assert time.perf_counter() - start < 1.0

    def test_a_forked_child_leaves_the_parents_pool_alone(self):
        # the child maps on workers of its own and exits normally (running
        # atexit); the parent's workers then still serve its next map
        code = self.SCRIPT + (
            "before = pids()\n"
            "read, write = os.pipe()\n"
            "if os.fork() == 0:\n"
            "    os.write(write, json.dumps(sorted(pids())).encode())\n"
            "    sys.exit(0)\n"
            "os.close(write)\n"
            "in_child = set(json.loads(os.read(read, 1 << 16)))\n"
            "os.wait()\n"
            "print(json.dumps([not before & in_child, pids() <= before]))\n"
        )
        assert json.loads(_run_script(code)) == [True, True]

    @pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(0)"])
    def test_no_worker_outlives_its_parent(self, exit_call):
        # without atexit (os._exit), workers exit on EOF from the task pipe
        code = self.SCRIPT + (
            "print(json.dumps(sorted(pids())), flush=True)\n"
            f"{exit_call}\n"
        )
        workers = set(json.loads(_run_script(code)))
        assert workers and os.getpid() not in workers
        deadline = time.monotonic() + 5.0
        while not all(map(_worker_gone, workers)):
            assert time.monotonic() < deadline, workers
            time.sleep(0.05)


class TestDeadWorker:
    # each case runs in a fresh interpreter with a timeout, so a map that
    # waits for ever fails the test instead of hanging the suite

    def test_a_killed_worker_fails_the_map(self):
        code = (
            "import json, os, signal, time\n"
            "from lrdcp import _parallel\n"
            "def square_or_die(task):\n"
            "    if task == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    time.sleep(0.02)\n"
            "    return task * task\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    _parallel.chunked_map(square_or_die, list(range(8)))\n"
            "except ChildProcessError as exc:\n"
            "    failed = [str(exc), time.perf_counter() - start]\n"
            "print(json.dumps(failed))\n"
            "after = _parallel.chunked_map(square_or_die, [1, 2, 4])\n"
            "print(json.dumps(after))\n"
        )
        failed, after = _run_script(code).splitlines()
        message, seconds = json.loads(failed)
        assert message == "a pool worker died during the map"
        assert seconds < 2.0
        # the next map forks a fresh pool
        assert json.loads(after) == [1, 4, 16]

    def test_the_cli_reports_a_killed_worker_in_one_line(self):
        # patched before the pool forks, so its workers run the killer
        code = (
            "import os, signal, sys\n"
            "from lrdcp import cli, limitdist\n"
            "def die(tasks):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "limitdist.simulate_chunk = die\n"
            "sys.exit(cli.main(['experiment', '--kind', 'size', '--hurst',\n"
            "                   '0.7', '--n', '50', '--reps', '1000',\n"
            "                   '--seed', '1']))\n"
        )
        done = _run("-c", code)
        assert done.returncode == 1
        assert done.stderr == "error: a pool worker died during the map\n"
        assert done.stdout == ""

    def test_a_spawn_worker_that_cannot_start_fails_the_map(self, tmp_path):
        # a script without a __main__ guard: each spawned worker re-runs
        # it, cannot start a pool while it bootstraps, and dies; the pool
        # would replace it for ever
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing\n"
            "multiprocessing.set_start_method('spawn', force=True)\n"
            "from lrdcp import limitdist\n"
            "spec = limitdist.LimitSimSpec(0.7, grid_size=100,\n"
            "                              replications=1000)\n"
            "print(limitdist.simulate_limit_values(spec).sum())\n"
        )
        # a run past 30 s raises TimeoutExpired
        start = time.perf_counter()
        done = _run(str(script), timeout=30)
        seconds = time.perf_counter() - start
        size = len(done.stderr.encode())
        lines = done.stderr.splitlines()
        why = (f"exit {done.returncode} after {seconds:.1f} s with {size} "
               f"bytes of stderr, ending:\n" + "\n".join(lines[-20:]))
        assert done.returncode != 0, why
        assert size < 64 * 1024, why
        assert lines[-1:] == [
            "ChildProcessError: a pool worker died during the map"], why
