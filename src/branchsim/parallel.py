"""Reproducible replica-parallel execution.

Replicas are simulated in fixed blocks of REPLICA_BLOCK consecutive indices;
block b draws from one generator seeded by
SeedSequence(entropy=master_seed, spawn_key=(b,)), so every replica's draws
depend only on (master_seed, its block, its place in the block). Workers
receive whole blocks and results are joined in replica-index order, making
the output independent of the worker count and of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

THREADS_ENV_VAR = "BRANCHSIM_THREADS"

REPLICA_BLOCK = 64  # replicas per random stream; never depends on the worker count


def default_threads() -> int:
    value = os.environ.get(THREADS_ENV_VAR)
    if value:
        return max(1, int(value))
    return 1


def replica_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Generator of stream `stream` under master_seed (a replica block index
    in the engine, 0 for the spine estimators)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,))
    return np.random.default_rng(seq)


def _run_blocks(task, first, last, n_replicas, master_seed):
    parts = []
    for block in range(first, last):
        lo = block * REPLICA_BLOCK
        n = min(REPLICA_BLOCK, n_replicas - lo)
        parts.append(task(n, replica_rng(master_seed, block)))
    return task.join(parts)


def map_replicas(task, n_replicas: int, master_seed: int, threads: int = 1):
    """The results task(n, rng_b) of the replica blocks b, joined in
    replica-index order by task.join, optionally process-parallel.

    task(n, rng) returns the result of n replicas drawn from rng, and
    task.join(results) joins consecutive results into one; task must be
    picklable (a dataclass with __call__). Each worker joins its own blocks,
    so one result per chunk of blocks crosses the process boundary, and the
    joined result does not depend on the worker count.
    """
    n_blocks = -(-n_replicas // REPLICA_BLOCK)
    if threads <= 1 or n_blocks <= 1:
        return _run_blocks(task, 0, n_blocks, n_replicas, master_seed)
    n_chunks = min(n_blocks, 4 * threads)
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_run_blocks, task, int(lo), int(hi), n_replicas, master_seed)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        # submission order == replica-index order
        return task.join([fut.result() for fut in futures])
