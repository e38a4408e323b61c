"""Array-native simulation of the branching dynamics.

Each particle carries an independent Exp(r) branching clock. Replicas are
simulated a block at a time (``parallel.REPLICA_BLOCK`` of them share one
random stream) on a frontier of arrays ``(replica, state, t_last,
t_branch)``, with states in the motion's float64 encoding (NaN marks
absorption). A particle's state is updated only at its own branch time and at
snapshot times, which is exact by the Markov property, and particles are
independent, so each sweep moves every particle whose clock rings by the next
snapshot time s in one ``step_many`` call over ``t_branch - t_last``. At a
branch event the parent dies and is replaced in place by m i.i.d. offspring:
offspring counts are drawn in one ``sample_offspring_many`` call and the
children laid out with ``np.repeat``. At s the whole frontier is moved to s
and the live states are split by replica.

Lineages absorbed by the motion are dropped immediately: all descendants of
an absorbed particle are absorbed and contribute nothing to the live
empirical measure, so only the absorption events of tracked lineages are
counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branching import BranchingLaw
from .errors import ConfigurationError
from .motions import MotionModel
from .parallel import map_replicas, replica_rng
from .states import is_absorbed

DEFAULT_POPULATION_CAP = 10**6


@dataclass(frozen=True)
class PopulationSnapshot:
    """Live (non-absorbed) states at a fixed time plus absorption bookkeeping."""

    time: float
    live_states: tuple
    absorbed_count: int
    dead_count: int
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.live_states)


@dataclass(frozen=True)
class SimulationConfig:
    horizon: float
    snapshot_times: tuple
    population_cap: int = DEFAULT_POPULATION_CAP
    seed: int = 0

    def __post_init__(self):
        problems = []
        if not self.horizon > 0:
            problems.append(f"horizon must be > 0, got {self.horizon}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not times:
            problems.append("snapshot_times must be nonempty")
        elif any(b <= a for a, b in zip(times, times[1:])):
            problems.append("snapshot_times must be strictly increasing")
        elif not (times[0] > 0 and times[-1] <= self.horizon):
            problems.append("snapshot_times must lie in (0, horizon]")
        if not self.population_cap >= 1:
            problems.append(f"population_cap must be >= 1, got {self.population_cap}")
        if problems:
            raise ConfigurationError(*problems)
        object.__setattr__(self, "snapshot_times", times)


def _check_start(motion: MotionModel, x0) -> None:
    if is_absorbed(x0):
        raise ConfigurationError("x0 must be non-absorbed")
    motion.validate_state(x0)


def _simulate_block(motion, law: BranchingLaw, x0, cfg: SimulationConfig, n: int, rng) -> list:
    """Snapshots of n independent replicas started at x0, all drawing from rng.

    A replica whose live population exceeds the cap at the end of a sweep is
    frozen: it stops advancing, and the snapshots at or after that time report
    its population as of the freeze, flagged truncated.
    """
    scale = 1.0 / law.rate_r
    rep = np.arange(n)
    x = np.full(n, motion.encode(x0))
    t_last = np.zeros(n)
    t_branch = rng.exponential(scale, n)
    absorbed = np.zeros(n, dtype=np.int64)
    dead = np.zeros(n, dtype=np.int64)
    frozen = {}  # replica -> (live states, absorbed count, dead count) at the freeze
    out = [[] for _ in range(n)]

    for s in cfg.snapshot_times:
        while True:
            due = t_branch <= s
            if not due.any():
                break
            idx = np.flatnonzero(due)
            keep = np.flatnonzero(~due)
            y = motion.step_many(x[idx], t_branch[idx] - t_last[idx], rng)
            gone = np.isnan(y)
            absorbed += np.bincount(rep[idx[gone]], minlength=n)
            idx, y = idx[~gone], y[~gone]
            m = law.sample_offspring_many(idx.size, rng)
            dead += np.bincount(rep[idx[m == 0]], minlength=n)
            born = np.repeat(t_branch[idx], m)
            rep = np.concatenate((rep[keep], np.repeat(rep[idx], m)))
            x = np.concatenate((x[keep], np.repeat(y, m)))
            t_last = np.concatenate((t_last[keep], born))
            t_branch = np.concatenate((t_branch[keep], born + rng.exponential(scale, born.size)))
            over = np.flatnonzero(np.bincount(rep, minlength=n) > cfg.population_cap)
            if over.size:
                for r in over.tolist():
                    states = tuple(motion.decode(x[rep == r]))
                    frozen[r] = (states, int(absorbed[r]), int(dead[r]))
                moving = ~np.isin(rep, over)
                rep, x = rep[moving], x[moving]
                t_last, t_branch = t_last[moving], t_branch[moving]

        x = motion.step_many(x, s - t_last, rng)
        gone = np.isnan(x)
        absorbed += np.bincount(rep[gone], minlength=n)
        order = np.flatnonzero(~gone)
        order = order[np.argsort(rep[order], kind="stable")]
        rep, x, t_branch = rep[order], x[order], t_branch[order]
        t_last = np.full(rep.size, s)
        states = motion.decode(x)
        ends = np.cumsum(np.bincount(rep, minlength=n)).tolist()
        for r, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
            if r in frozen:
                live, n_absorbed, n_dead = frozen[r]
                truncated = True
            else:
                live, n_absorbed, n_dead = tuple(states[lo:hi]), int(absorbed[r]), int(dead[r])
                truncated = False
            out[r].append(
                PopulationSnapshot(
                    time=s,
                    live_states=live,
                    absorbed_count=n_absorbed,
                    dead_count=n_dead,
                    truncated=truncated,
                )
            )
    return out


def run_replica(
    motion: MotionModel,
    law: BranchingLaw,
    x0,
    cfg: SimulationConfig,
    rng: np.random.Generator = None,
) -> list:
    """Simulate one replica; snapshots at exactly cfg.snapshot_times.

    Without rng the replica draws from stream 0 of cfg.seed. That stream is
    also the one of the first replica block of run_replicas, but a block of
    one consumes it in a different order than a full block, so the result
    equals no replica of run_replicas. If the live population exceeds the cap the
    replica stops advancing and all snapshots at or after the stop time are
    flagged truncated.
    """
    _check_start(motion, x0)
    if rng is None:
        rng = replica_rng(cfg.seed, 0)
    return _simulate_block(motion, law, x0, cfg, 1, rng)[0]


@dataclass(frozen=True)
class _BlockTask:
    motion: MotionModel
    law: BranchingLaw
    x0: object
    cfg: SimulationConfig

    def __call__(self, n, rng):
        return _simulate_block(self.motion, self.law, self.x0, self.cfg, n, rng)


def run_replicas(motion, law, x0, cfg: SimulationConfig, n_replicas: int, threads: int = 1):
    """n independent replicas, in replica-index order regardless of threads."""
    _check_start(motion, x0)
    return map_replicas(_BlockTask(motion, law, x0, cfg), n_replicas, cfg.seed, threads)


def survival_indicator(snapshots) -> list:
    """True iff the live population is nonempty at each snapshot time."""
    return [snap.size > 0 or snap.truncated for snap in snapshots]
