import math
from dataclasses import fields

import numpy as np
import pytest

from branchsim import (
    ConfigurationError,
    ContactProcessModT,
    ErgodicCTMC,
    FiniteSet,
    GaltonWatson,
    Interval,
    KilledDriftBM,
    KilledOU,
    Observables,
    SimulationConfig,
    TransientOU,
    binary_law,
    canonicalize,
    count_in,
    min_h_statistic,
    run_replica,
    run_replicas,
    survival_indicator,
)
from branchsim import engine
from branchsim.engine import ReplicaArrays
from branchsim.experiments import DEFAULT_TEST_SETS
from branchsim.parallel import replica_rng


def test_config_validation_collects_problems():
    with pytest.raises(ConfigurationError) as err:
        SimulationConfig(horizon=-1.0, snapshot_times=(), population_cap=0)
    msg = str(err.value)
    assert "horizon" in msg and "nonempty" in msg and "population_cap" in msg
    with pytest.raises(ConfigurationError, match="increasing"):
        SimulationConfig(horizon=2.0, snapshot_times=(1.0, 1.0))
    with pytest.raises(ConfigurationError, match=r"\(0, horizon\]"):
        SimulationConfig(horizon=2.0, snapshot_times=(1.0, 3.0))


def test_same_seed_same_trajectory():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 1.0)
    cfg = SimulationConfig(horizon=3.0, snapshot_times=(1.0, 2.0, 3.0), seed=7)
    a = run_replica(m, law, 0, cfg, replica_rng(7, 0))
    b = run_replica(m, law, 0, cfg, replica_rng(7, 0))
    assert a == b
    c = run_replica(m, law, 0, cfg, replica_rng(8, 0))
    assert a != c  # different entropy gives a different tree (a.s.)


def test_population_mean_matches_growth_rate():
    # E|population at t| = e^{r(m1-1) t} for the conservative chain motion
    m = ErgodicCTMC.default_example()
    law = binary_law(0.3, 1.5)  # growth r(m1-1) = 0.6
    cfg = SimulationConfig(horizon=2.0, snapshot_times=(1.0, 2.0), seed=0)
    reps = run_replicas(m, law, 0, cfg, n_replicas=4000, threads=1)
    for k, t in enumerate(cfg.snapshot_times):
        sizes = np.array([r[k].size for r in reps], dtype=float)
        se = sizes.std(ddof=1) / math.sqrt(len(sizes))
        assert abs(sizes.mean() - math.exp(0.6 * t)) < 4 * se
        assert all(r[k].time == t for r in reps)


def test_absorbing_motion_counts_and_survival():
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)
    cfg = SimulationConfig(horizon=2.0, snapshot_times=(0.5, 2.0), seed=1)
    reps = run_replicas(m, law, 0.5, cfg, n_replicas=500, threads=1)
    for snaps in reps:
        ind = survival_indicator(snaps)
        # survival is monotone decreasing along a replica
        assert ind == sorted(ind, reverse=True)
        assert snaps[1].absorbed_count >= snaps[0].absorbed_count
        if snaps[1].size > 0:
            assert snaps[0].size > 0
        assert all(x > 0 for x in snaps[1].live_states)
    assert any(s[1].size == 0 for s in reps)
    assert any(s[1].size > 0 for s in reps)


def test_population_cap_truncates_and_flags():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 2.0)
    cfg = SimulationConfig(
        horizon=4.0, snapshot_times=(0.5, 4.0), population_cap=8, seed=3
    )
    reps = run_replicas(m, law, 0, cfg, n_replicas=100, threads=1)
    hit = [r for r in reps if r[1].truncated]
    assert hit  # growth e^{1.2 t} blows through a cap of 8 by t=4
    for snaps in hit:
        assert snaps[1].size >= 8
        if snaps[0].truncated:  # flag is sticky once set
            assert snaps[1].truncated
    # a truncated replica still counts as surviving
    assert survival_indicator(hit[0])[1] == 1


def test_dead_lineages_from_zero_offspring():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.45, 2.0)
    cfg = SimulationConfig(horizon=3.0, snapshot_times=(3.0,), seed=5)
    reps = run_replicas(m, law, 0, cfg, n_replicas=300, threads=1)
    assert any(r[0].dead_count > 0 for r in reps)
    assert any(r[0].size == 0 for r in reps)  # extinction happens (eta = 9/11)
    for r in reps:
        assert r[0].absorbed_count == 0  # chain motion never absorbs


def test_run_replica_rejects_bad_start():
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)
    cfg = SimulationConfig(horizon=1.0, snapshot_times=(1.0,))
    with pytest.raises(ConfigurationError):
        run_replica(m, law, -1.0, cfg, replica_rng(0, 0))


def test_near_degenerate_law_keeps_single_lineage_rare_branching():
    # P(m=1) = 1 is ruled out by the supercriticality invariant; the closest
    # admissible law branches into 2 very rarely.
    m = ErgodicCTMC.default_example()
    law = binary_law(1e-6, 1e-6)  # rate and p0 both tiny: branching a.s. absent
    cfg = SimulationConfig(horizon=1.0, snapshot_times=(1.0,), seed=2)
    reps = run_replicas(m, law, 0, cfg, n_replicas=200, threads=1)
    assert all(r[0].size == 1 for r in reps)


@pytest.mark.parametrize(
    "motion, x0",
    [(KilledOU(1.0), 1.0), (GaltonWatson(((-1, 0.6), (1, 0.4))), 2)],
    ids=["killed-ou", "galton-watson"],
)
def test_replicas_do_not_depend_on_threads(motion, x0):
    # 150 replicas: two full blocks of 64 and a partial one
    law = binary_law(0.2, 2.0)
    cfg = SimulationConfig(horizon=1.5, snapshot_times=(0.5, 1.5), seed=11)
    by_threads = [run_replicas(motion, law, x0, cfg, n_replicas=150, threads=t) for t in (1, 2, 8)]
    assert len(by_threads[0]) == 150
    assert by_threads[0] == by_threads[1] == by_threads[2]
    assert any(r[-1].size > 1 for r in by_threads[0])


def test_killed_ou_mean_population_matches_closed_form():
    # E|xi_t| = e^{r(m1-1) t} P_x(X_t > 0) = e^{gt} erf(x0 / sqrt(2 tau(t)))
    m = KilledOU(1.0)
    law = binary_law(0.2, 2.0)  # g = 1.2
    cfg = SimulationConfig(horizon=2.0, snapshot_times=(0.5, 1.0, 2.0), seed=4)
    reps = run_replicas(m, law, 1.0, cfg, n_replicas=3000, threads=1)
    for k, t in enumerate(cfg.snapshot_times):
        sizes = np.array([r[k].size for r in reps], dtype=float)
        se = sizes.std(ddof=1) / math.sqrt(len(sizes))
        exact = math.exp(1.2 * t) * m.survival_probability(1.0, t)
        assert abs(sizes.mean() - exact) < 4 * se


REDUCER_CASES = {
    "killed-ou": (KilledOU(1.0), 1.0, (Interval(0.0, math.inf), Interval(1.0, 2.0)), None),
    "galton-watson": (
        GaltonWatson(((-1, 0.6), (1, 0.4))), 2, (FiniteSet((1,)), Interval(2.5, math.inf)), None
    ),
    "ergodic-ctmc": (ErgodicCTMC.default_example(), 0, DEFAULT_TEST_SETS["ergodic-ctmc"], None),
    "contact-mod-t": (
        ContactProcessModT(1, 0.3),
        canonicalize(frozenset({(0,)})),
        DEFAULT_TEST_SETS["contact-mod-t"][:2] + (FiniteSet((frozenset({(0,), (1,)}),)),),
        None,
    ),
    # h uses exp: min h must still be the scalar h of min_h_statistic
    "transient-ou": (TransientOU(0.5), 0.5, (Interval(-1.0, 1.0),), None),
    # a cap of 6 freezes some replicas mid-run: their later snapshots report
    # the population at the freeze, flagged truncated
    "killed-ou-capped": (KilledOU(1.0), 1.0, (Interval(1.0, 2.0),), 6),
}


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("case", sorted(REDUCER_CASES))
def test_reducers_equal_the_snapshot_observer(case, threads):
    motion, x0, sets, cap = REDUCER_CASES[case]
    law = binary_law(0.2, 2.0)
    kwargs = {"population_cap": cap} if cap else {}
    cfg = SimulationConfig(horizon=1.5, snapshot_times=(0.5, 1.0, 1.5), seed=21, **kwargs)
    eigen = motion.eigen_data()
    # contact-process codes are per-process ids, which cannot be pooled
    observables = Observables(sets, sum_h=eigen, min_h=eigen, pool=motion.codes_are_values)
    snapshots = run_replicas(motion, law, x0, cfg, n_replicas=150, threads=threads)
    arrays = run_replicas(motion, law, x0, cfg, n_replicas=150, threads=threads,
                          observables=observables)
    assert len(arrays) == len(snapshots) == 150 and arrays.times == cfg.snapshot_times

    def column(fn):
        return np.array([[fn(snap) for snap in snaps] for snaps in snapshots])

    def codes(snap):
        return np.array([motion.encode(s) for s in snap.live_states], dtype=float)

    assert (arrays.size == column(lambda s: s.size)).all()
    assert (arrays.absorbed == column(lambda s: s.absorbed_count)).all()
    assert (arrays.dead == column(lambda s: s.dead_count)).all()
    assert (arrays.truncated == column(lambda s: s.truncated)).all()
    for k, B in enumerate(sets):
        assert (arrays.counts[:, k, :] == column(lambda s: count_in(s.live_states, B))).all()
    # the same sum, over the same values in the same order: equal bits
    assert (arrays.sum_h == column(lambda s: eigen.h_many(codes(s)).sum())).all()
    assert (arrays.min_h == column(lambda s: min_h_statistic(s, eigen))).all()
    if observables.pool:
        pooled = [codes(snaps[-1]) for snaps in snapshots if not snaps[-1].truncated]
        assert (arrays.pooled == np.concatenate(pooled)).all()
    # the replicas read as per-replica snapshot summaries
    assert [survival_indicator(r) for r in arrays] == [survival_indicator(r) for r in snapshots]
    assert arrays.counts.sum() > 0 and arrays.sum_h.sum() > 0
    if cap:
        assert 0 < arrays.truncated[:, -1].sum() < 150
        assert (arrays.size[arrays.truncated[:, 0], 0] > cap).all()


GROUPING_CASES = {
    **REDUCER_CASES,
    "killed-drift-bm": (KilledDriftBM(1.0), 1.0, (Interval(0.0, 1.0),), None),
}


def _same_replicas(a, b):
    if isinstance(a, list):
        return a == b
    return all(
        (x is None and y is None) or np.array_equal(x, y)
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(ReplicaArrays))
    )


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("observer", ("snapshots", "arrays"))
@pytest.mark.parametrize("case", sorted(GROUPING_CASES))
def test_lockstep_groups_do_not_change_replicas(monkeypatch, case, observer, threads):
    # 600 replicas are 10 blocks: by default later groups hold several blocks
    # in lockstep (also in the two-block chunks of 2 workers); with BUDGET 0
    # every group is one block, drawing alone from its stream
    motion, x0, sets, cap = GROUPING_CASES[case]
    law = binary_law(0.2, 2.0)
    kwargs = {"population_cap": cap} if cap else {}
    cfg = SimulationConfig(horizon=1.5, snapshot_times=(0.5, 1.0, 1.5), seed=23, **kwargs)
    eigen = motion.eigen_data()
    observables = None
    if observer == "arrays":
        observables = Observables(sets, sum_h=eigen, min_h=eigen, pool=motion.codes_are_values)
    widths = []
    simulate = engine._simulate_group

    def spy(*args):
        widths.append(len(args[5].generators))
        return simulate(*args)

    monkeypatch.setattr(engine, "_simulate_group", spy)
    grouped = run_replicas(motion, law, x0, cfg, 600, threads, observables)
    monkeypatch.setattr(engine, "BUDGET", 0)
    alone = run_replicas(motion, law, x0, cfg, 600, threads, observables)
    assert len(grouped) == len(alone) == 600
    assert _same_replicas(grouped, alone)
    if threads == 1:
        assert max(widths[: len(widths) - 10]) > 1 and widths[-10:] == [1] * 10
    if cap:
        assert any(r[-1].truncated for r in grouped)
