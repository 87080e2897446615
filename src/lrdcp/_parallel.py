"""Deterministic chunked parallelism for Monte Carlo replications.

Replication indices are split into fixed-size chunks before any
scheduling decision, each chunk is evaluated by a pure top-level function
of its index range, and results are concatenated in chunk order.  The
output is therefore bit-identical for any worker count; LRD_CP_THREADS
caps the workers (default: the CPUs this process may run on), and a
single worker short-circuits to in-process evaluation.
"""

import os
from multiprocessing import Pool

#: replications per chunk; fixed so results never depend on worker count
CHUNK_SIZE = 500

#: bytes of one row block inside a chunk.  The fGn draw and the batch
#: statistic kernel walk a chunk in blocks of rows sized so that a
#: block's temporaries stay in a core's L2 cache.  Every row is computed
#: by the same expressions whatever block it falls in, so this size never
#: changes an output bit.
BLOCK_BYTES = 1 << 18


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


def chunked_map(func, tasks):
    """Map a picklable function over tasks, preserving task order."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [func(task) for task in tasks]
    with Pool(workers) as pool:
        # one chunk per dispatch, so workers finish within a chunk of each other
        return pool.map(func, tasks, chunksize=1)
