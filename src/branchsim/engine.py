"""Array-native simulation of the branching dynamics.

Each particle carries an independent Exp(r) branching clock. Replicas come in
blocks of ``parallel.REPLICA_BLOCK`` that share one random stream, and a run
of consecutive blocks is simulated in lockstep, as one group, on a frontier
of arrays ``(replica, state, t_last, t_branch)``, with states in the motion's
float64 encoding (NaN marks absorption). A particle's state is updated only
at its own branch time and at snapshot times, which is exact by the Markov
property, and particles are independent, so each sweep moves every particle
whose clock rings by the next snapshot time s in one ``step_many`` call over
``t_branch - t_last``. At a branch event the parent dies and is replaced in
place by m i.i.d. offspring: offspring counts are drawn in one
``sample_offspring_many`` call and the children laid out with ``np.repeat``.
Particles whose clock rings after s are parked until s, so a sweep costs the
particles it moves, not the frontier. At s the whole frontier is moved to s,
sorted by replica and handed to an observer, inside the block task.

Every draw of a group is split by block (``parallel.Streams``): each block
draws from its own stream exactly the numbers, in the order, it draws when
simulated alone, so results do not depend on the grouping. A group starts at
one block, and each next group is sized from the peak frontier of the last to
hold about BUDGET particles: many blocks of small populations share the
Python overhead of a sweep, and a block of tens of thousands of particles
runs alone.

Two observers exist. Without ``Observables`` each replica becomes its list of
``PopulationSnapshot`` (the live states decoded to public states). With
``Observables`` each group is reduced on the encoded frontier to a few arrays
(``ReplicaArrays``): sizes, absorption counts, truncation flags, counts in
test sets, the per-replica sum and minimum of h, and pooled live values.
Codes of the contact process are per-process interned ids, so observables are
always evaluated in the process that simulated the block.

Lineages absorbed by the motion are dropped immediately: all descendants of
an absorbed particle are absorbed and contribute nothing to the live
empirical measure, so only the absorption events of tracked lineages are
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .branching import BranchingLaw
from .eigen import EigenData
from .errors import ConfigurationError
from .motions import MotionModel
from .parallel import REPLICA_BLOCK, Streams, map_replicas, replica_rng
from .states import is_absorbed

DEFAULT_POPULATION_CAP = 10**6

# particles a lockstep group of blocks aims at: the next group gets
# max(1, BUDGET * blocks / peak frontier) blocks of the last one
BUDGET = 2**15


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


def _simulate_group(motion, law: BranchingLaw, x0, cfg: SimulationConfig, n: int,
                    streams: Streams, observe) -> int:
    """Simulate n independent replicas started at x0, replica i drawing from
    the stream of its block i // REPLICA_BLOCK; at the j-th snapshot time call
    observe(j, rep, x, absorbed, dead, truncated) with the live codes x sorted
    by replica rep and the per-replica counters. Returns the largest number
    of particles on the frontier.

    The blocks run in lockstep, and every draw covers the particles of all of
    them, kept block by block and, within a block, in the order a block
    simulated alone keeps them; a draw for a block with no particles consumes
    nothing. So each block draws exactly what it draws alone, and the result
    does not depend on how blocks are grouped.

    A replica whose live population exceeds the cap at the end of a sweep is
    frozen: it stops advancing, and the snapshots at or after that time report
    its population as of the freeze, flagged truncated.
    """
    scale = 1.0 / law.rate_r
    cap = cfg.population_cap
    rep = np.arange(n)
    x = np.full(n, motion.encode(x0))
    t_last = np.zeros(n)
    t_branch = streams.over(rep).exponential(scale)
    absorbed = np.zeros(n, dtype=np.int64)
    dead = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=np.int64)  # particles of each replica on the frontier
    # live codes of the frozen replicas at the freeze; their counters no
    # longer change, since none of their particles remains on the frontier
    frozen_rep, frozen_x = np.zeros(0, dtype=rep.dtype), np.zeros(0)
    truncated = np.zeros(n, dtype=bool)
    peak = n

    for j, s in enumerate(cfg.snapshot_times):
        # The frontier is parked chunks, in sweep order, of particles whose
        # clock rings after s, plus the children of the last sweep: a sweep
        # touches only those children, since parked particles stay put until s.
        parked, n_parked = [], 0
        while True:
            due = t_branch <= s
            wait = ~due
            parked.append((rep[wait], x[wait], t_last[wait], t_branch[wait]))
            n_parked += parked[-1][0].size
            idx = np.flatnonzero(due)
            if not idx.size:
                break
            r, tb = rep[idx], t_branch[idx]
            y = motion.step_many(x[idx], tb - t_last[idx], streams.over(r))
            gone = np.isnan(y)
            absorbed += np.bincount(r[gone], minlength=n)
            live -= np.bincount(r, minlength=n)
            r, y, tb = r[~gone], y[~gone], tb[~gone]
            m = law.sample_offspring_many(r.size, streams.over(r))
            dead += np.bincount(r[m == 0], minlength=n)
            rep, x, t_last = np.repeat(r, m), np.repeat(y, m), np.repeat(tb, m)
            t_branch = t_last + streams.over(rep).exponential(scale)
            live += np.bincount(rep, minlength=n)
            peak = max(peak, n_parked + rep.size)
            over = np.flatnonzero(live > cap)
            if over.size:
                truncated[over] = True
                live[over] = 0
                chunks = parked + [(rep, x, t_last, t_branch)]
                stop = [truncated[chunk[0]] for chunk in chunks]
                frozen_rep = np.concatenate([frozen_rep] + [c[0][f] for c, f in zip(chunks, stop)])
                frozen_x = np.concatenate([frozen_x] + [c[1][f] for c, f in zip(chunks, stop)])
                chunks = [tuple(a[~f] for a in c) for c, f in zip(chunks, stop)]
                parked, (rep, x, t_last, t_branch) = chunks[:-1], chunks[-1]
                n_parked = sum(c[0].size for c in parked)

        rep, x, t_last, t_branch = (np.concatenate(a) for a in zip(*parked))
        if len(streams.generators) > 1:
            # each block's particles in the order the block alone has them
            order = np.argsort(rep // REPLICA_BLOCK, kind="stable")
            rep, x, t_last, t_branch = rep[order], x[order], t_last[order], t_branch[order]
        x = motion.step_many(x, s - t_last, streams.over(rep))
        gone = np.isnan(x)
        absorbed += np.bincount(rep[gone], minlength=n)
        live -= np.bincount(rep[gone], minlength=n)
        order = np.flatnonzero(~gone)
        order = order[np.argsort(rep[order], kind="stable")]
        rep, x, t_branch = rep[order], x[order], t_branch[order]
        t_last = np.full(rep.size, s)
        if frozen_rep.size:
            all_rep = np.concatenate((rep, frozen_rep))
            order = np.argsort(all_rep, kind="stable")
            observe(j, all_rep[order], np.concatenate((x, frozen_x))[order], absorbed, dead, truncated)
        else:
            observe(j, rep, x, absorbed, dead, truncated)
    return peak


def _bounds(rep, n):
    """(lo, hi) of each replica's slice of a frontier sorted by replica."""
    ends = np.cumsum(np.bincount(rep, minlength=n)).tolist()
    return zip([0] + ends[:-1], ends)


class _SnapshotLists:
    """Observer that decodes each replica's live states into a list of
    PopulationSnapshot, one per snapshot time."""

    def __init__(self, motion, n, times):
        self.motion, self.times = motion, times
        self.lists = [[] for _ in range(n)]

    def __call__(self, j, rep, x, absorbed, dead, truncated):
        states = self.motion.decode(x)
        for r, (lo, hi) in enumerate(_bounds(rep, len(self.lists))):
            self.lists[r].append(
                PopulationSnapshot(
                    time=self.times[j],
                    live_states=tuple(states[lo:hi]),
                    absorbed_count=int(absorbed[r]),
                    dead_count=int(dead[r]),
                    truncated=bool(truncated[r]),
                )
            )

    def result(self) -> list:
        return self.lists


@dataclass(frozen=True)
class Observables:
    """What run_replicas reduces each replica's snapshots to.

    Sizes, absorbed and dead counts and truncation flags are always kept.
    test_sets adds the count of live particles in each set; sum_h and min_h,
    given the motion's eigendata, add the sum and the minimum of h over the
    live particles; pool keeps the live values at the last snapshot time of
    the replicas not truncated, for the motions whose codes are their states.
    """

    test_sets: tuple = ()
    sum_h: Optional[EigenData] = None
    min_h: Optional[EigenData] = None
    pool: bool = False


@dataclass(frozen=True)
class SnapshotSummary:
    """One replica at one snapshot time, as read from ReplicaArrays: the
    fields of PopulationSnapshot without the live states."""

    time: float
    size: int
    absorbed_count: int
    dead_count: int
    truncated: bool


@dataclass(frozen=True, eq=False)
class ReplicaArrays:
    """Observables of replicas at the snapshot times, in replica order.

    Per-replica arrays have one row per replica and one column per snapshot
    time: size, absorbed, dead (int64) and truncated (bool); counts is shaped
    (replicas, test sets, times); sum_h, min_h (+inf for an empty
    population) and pooled are None unless observed.
    Indexing and iteration give the replicas as tuples of SnapshotSummary.
    """

    times: tuple
    size: np.ndarray
    absorbed: np.ndarray
    dead: np.ndarray
    truncated: np.ndarray
    counts: np.ndarray
    sum_h: Optional[np.ndarray] = None
    min_h: Optional[np.ndarray] = None
    pooled: Optional[np.ndarray] = None

    @classmethod
    def concat(cls, parts) -> "ReplicaArrays":
        """The replicas of parts, in order."""

        def join(name):
            arrays = [getattr(part, name) for part in parts]
            return None if arrays[0] is None else np.concatenate(arrays)

        return cls(parts[0].times, *(join(f.name) for f in fields(cls)[1:]))

    def __len__(self):
        return len(self.size)

    def __getitem__(self, r):
        return tuple(
            SnapshotSummary(t, int(self.size[r, j]), int(self.absorbed[r, j]),
                            int(self.dead[r, j]), bool(self.truncated[r, j]))
            for j, t in enumerate(self.times)
        )

    def __iter__(self):
        return (self[r] for r in range(len(self)))


class _Reduction:
    """Observer that evaluates Observables on the encoded frontier of a block."""

    def __init__(self, observables: Observables, motion, n, times):
        self.obs, self.motion, self.times = observables, motion, times
        shape = (n, len(times))
        self.size, self.absorbed, self.dead = (np.zeros(shape, dtype=np.int64) for _ in range(3))
        self.truncated = np.zeros(shape, dtype=bool)
        self.counts = np.zeros((n, len(observables.test_sets), len(times)), dtype=np.int64)
        self.sum_h = None if observables.sum_h is None else np.zeros(shape)
        self.min_h = None if observables.min_h is None else np.zeros(shape)
        self.pooled = None

    def __call__(self, j, rep, x, absorbed, dead, truncated):
        n = len(self.size)
        self.size[:, j] = np.bincount(rep, minlength=n)
        self.absorbed[:, j], self.dead[:, j], self.truncated[:, j] = absorbed, dead, truncated
        for k, test_set in enumerate(self.obs.test_sets):
            self.counts[:, k, j] = np.bincount(rep[test_set.contains_many(x, self.motion)], minlength=n)
        if self.sum_h is not None:
            h = self.obs.sum_h.h_many(x)
            # one sum per replica slice: the summation order of
            # h_many(codes of its live states).sum(), so D_t keeps its bits
            self.sum_h[:, j] = [h[lo:hi].sum() for lo, hi in _bounds(rep, n)]
        if self.min_h is not None:
            # the scalar h of min_h_statistic: h_many can differ from it in
            # the last bit where h uses exp
            states, h = self.motion.decode(x), self.obs.min_h.h
            self.min_h[:, j] = [min(map(h, states[lo:hi]), default=np.inf)
                                for lo, hi in _bounds(rep, n)]
        if self.obs.pool and j == len(self.times) - 1:
            self.pooled = x[~truncated[rep]]

    def result(self) -> ReplicaArrays:
        return ReplicaArrays(self.times, self.size, self.absorbed, self.dead, self.truncated,
                             self.counts, self.sum_h, self.min_h, self.pooled)


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
    observer = _SnapshotLists(motion, 1, cfg.snapshot_times)
    _simulate_group(motion, law, x0, cfg, 1, Streams((rng,)), observer)
    return observer.result()[0]


@dataclass(frozen=True)
class _BlockTask:
    motion: MotionModel
    law: BranchingLaw
    x0: object
    cfg: SimulationConfig
    observables: Optional[Observables]

    def __call__(self, sizes, rngs):
        # Groups of consecutive blocks run in lockstep: the first group is one
        # block, and each next one is sized from the peak frontier of the last
        # so that a group holds about BUDGET particles.
        times, parts = self.cfg.snapshot_times, []
        first, width = 0, 1
        while first < len(sizes):
            n = sum(sizes[first:first + width])
            if self.observables is None:
                observer = _SnapshotLists(self.motion, n, times)
            else:
                observer = _Reduction(self.observables, self.motion, n, times)
            peak = _simulate_group(self.motion, self.law, self.x0, self.cfg, n,
                                   Streams(rngs[first:first + width]), observer)
            parts.append(observer.result())
            first += width
            width = max(1, BUDGET * width // peak)
        return self.join(parts)

    def join(self, parts):
        if self.observables is None:
            return [snaps for part in parts for snaps in part]
        return ReplicaArrays.concat(parts)


def run_replicas(
    motion, law, x0, cfg: SimulationConfig, n_replicas: int, threads=1,
    observables: Observables = None,
):
    """n independent replicas, in replica-index order regardless of threads
    (a worker count or a run's parallel.WorkerPool): one PopulationSnapshot
    list per replica, or with observables their ReplicaArrays. The draws do
    not depend on observables."""
    _check_start(motion, x0)
    if observables is not None and observables.pool and not motion.codes_are_values:
        raise ConfigurationError("pooled live values need a motion whose codes are its states")
    task = _BlockTask(motion, law, x0, cfg, observables)
    return map_replicas(task, n_replicas, cfg.seed, threads)


def survival_indicator(snapshots) -> list:
    """True iff the live population is nonempty at each snapshot time."""
    return [snap.size > 0 or snap.truncated for snap in snapshots]
