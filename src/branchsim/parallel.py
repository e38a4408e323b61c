"""Reproducible replica-parallel execution.

Replicas are simulated in fixed blocks of REPLICA_BLOCK consecutive indices;
block b draws from one generator seeded by
SeedSequence(entropy=master_seed, spawn_key=(b,)), so every replica's draws
depend only on (master_seed, its block, its place in the block). Workers
receive whole blocks and results are assembled in replica-index order, making
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
    out = []
    for block in range(first, last):
        lo = block * REPLICA_BLOCK
        n = min(REPLICA_BLOCK, n_replicas - lo)
        out.extend(task(n, replica_rng(master_seed, block)))
    return out


def map_replicas(task, n_replicas: int, master_seed: int, threads: int = 1) -> list:
    """Per-replica results of task(n, rng_b) over the replica blocks b,
    optionally process-parallel.

    task(n, rng) returns the results of n replicas drawn from rng, and must
    be picklable (a module-level function or a dataclass with __call__);
    results come back in replica-index order regardless of the worker count.
    """
    n_blocks = -(-n_replicas // REPLICA_BLOCK)
    if threads <= 1 or n_blocks <= 1:
        return _run_blocks(task, 0, n_blocks, n_replicas, master_seed)
    n_chunks = min(n_blocks, 4 * threads)
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int)
    out = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_run_blocks, task, int(lo), int(hi), n_replicas, master_seed)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for fut in futures:  # submission order == replica-index order
            out.extend(fut.result())
    return out
