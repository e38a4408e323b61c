"""Reproducible replica-parallel execution.

Replicas are simulated in fixed blocks of REPLICA_BLOCK consecutive indices;
block b draws from one generator seeded by
SeedSequence(entropy=master_seed, spawn_key=(b,)), so every replica's draws
depend only on (master_seed, its block, its place in the block). Each worker
receives one run of consecutive whole blocks with their generators and may
simulate several blocks together: a draw for particles of several blocks is
split by block through Streams, each block drawing from its own generator
exactly what it would draw if simulated alone. Results are joined in
replica-index order, making the output independent of the worker count, of
the grouping of blocks and of scheduling.

One run shares one WorkerPool between all its map_replicas calls; its
process pool starts on the first call that splits blocks between workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConfigurationError

THREADS_ENV_VAR = "BRANCHSIM_THREADS"

REPLICA_BLOCK = 64  # replicas per random stream; never depends on the worker count


def default_threads() -> int:
    """The worker count in BRANCHSIM_THREADS, 1 if it is unset or empty."""
    value = os.environ.get(THREADS_ENV_VAR)
    if not value:
        return 1
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {value!r}")
    return threads


def replica_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Generator of stream `stream` under master_seed (a replica block index
    in the engine, 0 for the spine estimators)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,))
    return np.random.default_rng(seq)


class Streams:
    """The random draws of an array of particles laid out block by block.

    Elements edges[k]:edges[k+1] of the array belong to the k-th block, which
    draws from generators[k]. A draw over the array draws each block's slice
    from its own generator, with the method and size the block would use if
    simulated alone, into that slice of one output array (uniform and
    exponential draws write it in place); a block with no elements
    draws nothing, as a draw of size 0 consumes nothing. With one generator
    every draw is a plain call of it.
    """

    __slots__ = ("generators", "edges")

    def __init__(self, generators, edges=None):
        self.generators = tuple(generators)
        self.edges = edges

    @classmethod
    def of(cls, rng, n: int) -> "Streams":
        """rng when it already is Streams (over n elements); otherwise one
        plain Generator drawing for all n."""
        return rng if isinstance(rng, Streams) else cls((rng,), (0, n))

    def over(self, rep) -> "Streams":
        """The streams of particles of replicas rep, counted from the first
        replica of the first block and ordered block by block."""
        if len(self.generators) == 1:
            return Streams(self.generators, (0, len(rep)))
        blocks = np.arange(len(self.generators) + 1)
        return Streams(self.generators, np.searchsorted(rep // REPLICA_BLOCK, blocks))

    def at(self, index) -> "Streams":
        """The streams of the elements at the ascending positions index."""
        if len(self.generators) == 1:
            return Streams(self.generators, (0, len(index)))
        return Streams(self.generators, np.searchsorted(index, self.edges))

    def parts(self):
        """(generator, lo, hi) of each block with elements."""
        edges, gens = self.edges, self.generators
        if len(gens) == 1:
            return [(gens[0], 0, edges[1])] if edges[1] else []
        full = np.flatnonzero(edges[1:] > edges[:-1])
        return [(gens[k], lo, hi) for k, lo, hi
                in zip(full.tolist(), edges[full].tolist(), edges[full + 1].tolist())]

    def _draw(self, draw):
        """draw(generator, lo, hi) of each block with elements, concatenated."""
        if len(self.generators) == 1:
            return draw(self.generators[0], 0, self.edges[1])
        drawn = [draw(g, lo, hi) for g, lo, hi in self.parts()]
        return np.concatenate(drawn) if drawn else np.zeros(0)

    def _fill(self, fill):
        """One array whose block slices fill(generator, out=slice) writes."""
        out = np.empty(self.edges[-1])
        for g, lo, hi in self.parts():
            fill(g, out=out[lo:hi])
        return out

    def random(self):
        return self._fill(np.random.Generator.random)

    def normal(self, loc, scale):
        return self._draw(lambda g, lo, hi: g.normal(loc, scale, hi - lo))

    def exponential(self, scale):
        # Generator.exponential(scale) is scale * standard_exponential, bit for bit
        out = self._fill(np.random.Generator.standard_exponential)
        out *= scale
        return out

    def poisson(self, lam):
        """Counts of the rates lam, an array over the elements."""
        return self._draw(lambda g, lo, hi: g.poisson(lam[lo:hi]))


class WorkerPool:
    """The worker processes of one run, shared by its map_replicas calls.

    The process pool of `threads` workers starts on the first call that
    splits blocks between workers, so a run at one thread, or whose calls
    each have one block, starts none. Use it as a context manager: leaving
    the block shuts the pool down, cancelling pending tasks on an exception.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(cancel=exc_type is not None)

    def executor(self):
        if self._executor is None:
            # looked up at call time, so a substitute executor class applies
            self._executor = ProcessPoolExecutor(max_workers=self.threads)
        return self._executor

    def close(self, cancel: bool = False):
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True, cancel_futures=cancel)


def _run_blocks(task, first, last, n_replicas, master_seed):
    blocks = range(first, last)
    sizes = [min(REPLICA_BLOCK, n_replicas - b * REPLICA_BLOCK) for b in blocks]
    return task(sizes, [replica_rng(master_seed, b) for b in blocks])


def map_replicas(task, n_replicas: int, master_seed: int, threads=1):
    """The result of the replica blocks b drawing from their generators rng_b,
    joined in replica-index order, optionally process-parallel.

    task(sizes, rngs) returns the joined result of consecutive blocks of
    sizes[k] replicas drawing from rngs[k], and task.join(results) joins
    consecutive results into one; task must be picklable (a dataclass with
    __call__). threads is a worker count or a run's WorkerPool; a count opens
    a pool for this call alone. Each worker gets one run of consecutive
    blocks, so one result per worker crosses the process boundary, and the
    joined result does not depend on the worker count.
    """
    if isinstance(threads, WorkerPool):
        return _map_blocks(task, n_replicas, master_seed, threads)
    with WorkerPool(threads) as pool:
        return _map_blocks(task, n_replicas, master_seed, pool)


def _map_blocks(task, n_replicas, master_seed, pool):
    n_blocks = -(-n_replicas // REPLICA_BLOCK)
    if pool.threads <= 1 or n_blocks <= 1:
        return _run_blocks(task, 0, n_blocks, n_replicas, master_seed)
    # one run per worker: each run repeats every sweep of the lockstep loop
    # and restarts its groups at one block, so more runs cost more than the
    # balance they buy
    n_chunks = min(n_blocks, pool.threads)
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int)
    executor = pool.executor()
    futures = [
        executor.submit(_run_blocks, task, int(lo), int(hi), n_replicas, master_seed)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    # submission order == replica-index order
    return task.join([fut.result() for fut in futures])
