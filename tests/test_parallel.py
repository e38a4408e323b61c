"""Block-split draws and the worker pool of a run.

The pool tests check the pool's life cycle: how many process pools a run
starts, and that none of their workers outlives the run, also when a worker
task raises. Every wait for worker processes has a deadline.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from branchsim import parallel
from branchsim.experiments import parse_spec, run_experiment
from branchsim.parallel import REPLICA_BLOCK, Streams, WorkerPool, map_replicas

CHILD_DEADLINE_S = 30.0


def _generators(n, seed=11):
    return [np.random.default_rng([seed, k]) for k in range(n)]


@pytest.mark.parametrize("sizes", [(3, 0, 5, 1), (0, 4, 0, 0, 2), (7,), (0, 0, 0)],
                         ids=["mixed", "leading-empty", "one-block", "all-empty"])
@pytest.mark.parametrize("method, args", [("random", ()), ("exponential", (1.0,)),
                                          ("exponential", (0.37,))],
                         ids=["random", "exponential-1", "exponential-0.37"])
def test_block_split_draws_equal_per_block_draws(sizes, method, args):
    split, alone = _generators(len(sizes)), _generators(len(sizes))
    edges = np.concatenate([[0], np.cumsum(sizes)])
    drawn = getattr(Streams(split, edges), method)(*args)
    expected = [getattr(g, method)(*args, size=k) for g, k in zip(alone, sizes)]
    assert drawn.dtype == np.float64 and drawn.shape == (sum(sizes),)
    assert np.array_equal(drawn, np.concatenate(expected))
    # each generator's state advanced exactly as drawing its block alone
    for g, h in zip(split, alone):
        assert g.random() == h.random()


def test_one_generator_draws_are_plain_calls():
    [g], [h] = _generators(1), _generators(1)
    streams = Streams.of(g, 6)
    assert np.array_equal(streams.random(), h.random(6))
    assert np.array_equal(streams.exponential(2.5), h.exponential(2.5, 6))
    assert g.random() == h.random()


ETA_SIGMA = {
    "experiment": "eta-sigma",
    "motion": {"kind": "galton-watson", "rho": [[-1, 0.6], [1, 0.4]]},
    "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 1.0},
    "x0": 1,
    "snapshot_times": [1.0, 2.0],
    "replicas": 4 * REPLICA_BLOCK,
    "seed": 5,
}


@pytest.fixture
def pools(monkeypatch):
    """The process pools started, seen through the executor class that
    parallel builds its pools from; each notes whether it was shut down."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.workers, self.shut_down = kwargs.get("max_workers"), False
            started.append(self)

        def shutdown(self, *args, **kwargs):
            self.shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return started


def _wait_for_no_children():
    deadline = time.monotonic() + CHILD_DEADLINE_S
    while multiprocessing.active_children():  # also joins exited children
        assert time.monotonic() < deadline, "worker processes outlived their pool"
        time.sleep(0.05)


@pytest.mark.parametrize("threads, replicas, expected", [
    (2, 4 * REPLICA_BLOCK, [2]),  # eta and sigma share one pool of two workers
    (1, 4 * REPLICA_BLOCK, []),
    (2, REPLICA_BLOCK, []),  # every map has one block: nothing to split
])
def test_a_run_starts_at_most_one_pool(pools, threads, replicas, expected):
    spec = parse_spec({**ETA_SIGMA, "threads": threads, "replicas": replicas})
    run_experiment(spec)
    assert [p.workers for p in pools] == expected
    assert all(p.shut_down for p in pools)
    _wait_for_no_children()


def test_csv_bytes_do_not_depend_on_the_worker_count():
    outputs = {run_experiment(parse_spec({**ETA_SIGMA, "threads": t}))[1] for t in (1, 2, 3)}
    assert len(outputs) == 1


@dataclass
class _Blocks:
    """A block task returning the first draw of each block, or raising."""

    fail: bool = False

    def __call__(self, sizes, rngs):
        if self.fail:
            raise RuntimeError("task failed in a worker")
        return [rng.random() for rng in rngs]

    def join(self, parts):
        return [x for part in parts for x in part]


def test_one_pool_serves_every_call_and_an_int_opens_its_own(pools):
    n = 5 * REPLICA_BLOCK
    serial = map_replicas(_Blocks(), n, 3, 1)
    with WorkerPool(2) as pool:
        assert [map_replicas(_Blocks(), n, 3, pool) for _ in range(3)] == [serial] * 3
    assert len(pools) == 1 and pools[0].shut_down
    assert map_replicas(_Blocks(), n, 3, 2) == serial
    assert len(pools) == 2 and pools[1].shut_down
    _wait_for_no_children()


def test_no_worker_outlives_a_failing_task(pools):
    with pytest.raises(RuntimeError, match="task failed in a worker"):
        with WorkerPool(2) as pool:
            map_replicas(_Blocks(), 4 * REPLICA_BLOCK, 3, pool)
            map_replicas(_Blocks(fail=True), 4 * REPLICA_BLOCK, 3, pool)
    _wait_for_no_children()
    with pytest.raises(RuntimeError, match="task failed in a worker"):
        map_replicas(_Blocks(fail=True), 4 * REPLICA_BLOCK, 3, 2)
    _wait_for_no_children()
    assert len(pools) == 2 and all(p.shut_down for p in pools)
