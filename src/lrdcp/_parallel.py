"""Deterministic chunked parallelism for Monte Carlo replications.

Replication indices are split into fixed-size chunks before any
scheduling decision, each chunk is evaluated by a pure top-level function
of its index range, and results are concatenated in chunk order.  The
output is therefore bit-identical for any worker count; LRD_CP_THREADS
caps the pool (default: the CPUs this process may run on), and a single
worker or a single task short-circuits to in-process evaluation.

There is one pool per process, so later maps reuse warm workers.  It is
forked at the first map that has two or more workers and two or more
tasks, with one worker per task up to LRD_CP_THREADS, and kept until the
process exits, or until LRD_CP_THREADS or the mapped function changes or
a map has more tasks than it has workers below that cap, when it is
replaced by a fresh pool.  Its workers see the package as it was at that
fork, so a monkeypatch made later does not reach them.  A map that raises
drops the pool, and a child forked from this process forgets it.
"""

import atexit
import os
import threading
from multiprocessing import Pool, process

#: replications per chunk; fixed so results never depend on worker count
CHUNK_SIZE = 500

#: bytes of one row block inside a chunk.  The fGn draw and the batch
#: statistic kernel walk a chunk in blocks of rows sized so that a
#: block's temporaries stay in a core's L2 cache.  Every row is computed
#: by the same expressions whatever block it falls in, so this size never
#: changes an output bit.
BLOCK_BYTES = 1 << 18

# (pool, func, worker_count(), pool size) of this process's pool, or None;
# maps from several threads take turns on it
_warm = None
_lock = threading.Lock()


def worker_count():
    """Pool size: LRD_CP_THREADS if set (an integer >= 1), else usable CPUs."""
    env = os.environ.get("LRD_CP_THREADS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            requested = 0
        if requested < 1:
            raise ValueError(
                f"LRD_CP_THREADS must be an integer >= 1, got {env!r}"
            )
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_ranges(total):
    """[(lo, hi), ...] covering range(total) in pieces of CHUNK_SIZE."""
    return [(lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]


def _close_pool():
    """Terminate and join this process's pool, if it has one."""
    global _warm
    if _warm is not None:
        pool = _warm[0]
        _warm = None
        pool.terminate()
        pool.join()


def _forget_pool():
    # a forked child must not use its parent's workers, nor terminate them
    # at exit as multiprocessing does with the children it knows of
    global _warm, _lock
    _lock = threading.Lock()
    if _warm is not None:
        process._children.difference_update(_warm[0]._pool)
        # so that dropping the copy writes nothing to the parent's pool
        _warm[0]._change_notifier = None
        _warm = None


# multiprocessing's exit hook stops the workers but leaves the pool in its
# running state, whose __del__ at interpreter teardown then fails loudly
atexit.register(_close_pool)
os.register_at_fork(after_in_child=_forget_pool)


def chunked_map(func, tasks):
    """Map a picklable function over tasks, preserving task order."""
    global _warm
    workers = worker_count()
    size = min(workers, len(tasks))
    with _lock:
        if _warm is not None and (
            _warm[1] is not func or _warm[2] != workers or _warm[3] < size
        ):
            _close_pool()
        if size > 1:
            if _warm is None:
                _warm = (Pool(size), func, workers, size)
            try:
                # one chunk per dispatch, so workers finish within a chunk
                # of each other
                return _warm[0].map(func, tasks, chunksize=1)
            except BaseException:
                # an interrupted map leaves its tasks queued; a later map
                # must not wait behind them
                _close_pool()
                raise
    return [func(task) for task in tasks]
