import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from branchsim import (
    ConfigurationError,
    DiagnosticError,
    ErgodicCTMC,
    FiniteSet,
    GaltonWatson,
    Interval,
    KilledOU,
    SimulationConfig,
    TransientOU,
    binary_law,
    doob_weighted_expectation,
    is_absorbed,
    many_to_one,
    many_to_two,
    run_replicas,
    sample_two_spine,
)
from branchsim.parallel import replica_rng


def test_many_to_one_constant_f_has_zero_variance():
    # for a conservative motion and f = 1 the estimator is deterministic
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 1.0)
    [est] = many_to_one(m, law, 0, [lambda s: 1.0], 1.7, n_paths=100, seed=0)
    assert est.value == pytest.approx(math.exp(0.6 * 1.7))
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_many_to_one_matches_engine_mean():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.25, 1.2)
    B = FiniteSet((1, 3))
    t = 1.5
    [spine] = many_to_one(m, law, 0, [B], t, n_paths=30_000, seed=1)
    cfg = SimulationConfig(horizon=t, snapshot_times=(t,), seed=2)
    reps = run_replicas(m, law, 0, cfg, n_replicas=3000, threads=1)
    counts = np.array(
        [sum(1 for s in r[0].live_states if B.contains(s)) for r in reps], float
    )
    se = math.hypot(spine.std_error, counts.std(ddof=1) / math.sqrt(len(counts)))
    assert abs(spine.value - counts.mean()) < 4 * se


def test_split_time_is_exponential():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 1.0)  # (m2 - m1) r = 1.6
    rng = replica_rng(4, 0)
    t = 1.0
    n = 20_000
    late = 0
    for _ in range(n):
        path = sample_two_spine(m, law, 0, t, rng)
        if path.split_time >= t:
            late += 1
            assert path.terminal_1 == path.terminal_2 == path.common_state
    p = math.exp(-1.6 * t)
    assert abs(late / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_two_spine_absorption_propagates():
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)
    rng = replica_rng(5, 0)
    saw_absorbed = False
    for _ in range(200):
        path = sample_two_spine(m, law, 0.2, 3.0, rng)
        if is_absorbed(path.common_state):
            saw_absorbed = True
            assert is_absorbed(path.terminal_1) and is_absorbed(path.terminal_2)
    assert saw_absorbed


def test_many_to_two_short_time_limit():
    # as t -> 0 the pair sum collapses to the diagonal: E ~ f(x0) g(x0)
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 1.0)
    f = FiniteSet((0,))
    [est] = many_to_two(m, law, 0, [(f, f)], 1e-6, n_paths=200, seed=0)
    assert est.value == pytest.approx(1.0, rel=1e-3)


def test_many_to_two_matches_engine_second_moment():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.25, 1.2)
    B = FiniteSet((1, 3))
    t = 1.5
    [spine] = many_to_two(m, law, 0, [(B, B)], t, n_paths=60_000, seed=3)
    cfg = SimulationConfig(horizon=t, snapshot_times=(t,), seed=6)
    reps = run_replicas(m, law, 0, cfg, n_replicas=4000, threads=1)
    sq = np.array(
        [sum(1 for s in r[0].live_states if B.contains(s)) ** 2 for r in reps], float
    )
    se = math.hypot(spine.std_error, sq.std(ddof=1) / math.sqrt(len(sq)))
    assert abs(spine.value - sq.mean()) < 4 * se


def test_many_to_two_warns_on_heavy_tails():
    # below the L2 threshold (growth < 2 lam) the exponential weight dominates
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)  # growth 0.6 < 2
    B = Interval(0.0, math.inf)
    with pytest.warns(RuntimeWarning, match=r"heavy-tailed \(CV") as caught:
        [est] = many_to_two(m, law, 1.0, [(B, B)], 3.0, n_paths=2000, seed=1)
    assert est.value > 0
    assert not any("no two-spine path contributed" in str(w.message) for w in caught)


def test_many_to_two_warns_when_no_path_contributes():
    # a test set outside the support gives an exact 0, which is flagged as no estimate
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)
    B = Interval(-math.inf, -1.0)
    with pytest.warns(RuntimeWarning, match="no two-spine path contributed"):
        [est] = many_to_two(m, law, 0.5, [(B, B)], 1.0, n_paths=200, seed=0)
    assert est.value == 0.0


@pytest.mark.parametrize(
    "motion, x0, fs",
    [
        (KilledOU(1.0), 1.0, (Interval(0.0, math.inf), Interval(1.0, 2.0), lambda s: min(s, 2.0))),
        (GaltonWatson(((-1, 0.6), (1, 0.4))), 2,
         (FiniteSet((1,)), FiniteSet((1, 2, 3)), lambda s: float(s))),
        (ErgodicCTMC.default_example(), 0, (FiniteSet((0,)), FiniteSet((1, 2)), lambda s: 1.0 + s)),
    ],
    ids=["killed-ou", "galton-watson", "ergodic-ctmc"],
)
def test_entries_share_paths_and_equal_one_entry_calls(motion, x0, fs):
    # the draws do not depend on the entries: each entry of one call is the
    # one-entry call of the same seed, bit for bit
    law = binary_law(0.2, 2.0)
    pairs = [(fs[0], fs[1]), (fs[1], fs[1]), (fs[2], fs[0])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        one = many_to_one(motion, law, x0, fs, 1.0, n_paths=40_000, seed=5)
        two = many_to_two(motion, law, x0, pairs, 1.0, n_paths=40_000, seed=5)
        assert one == [many_to_one(motion, law, x0, [f], 1.0, n_paths=40_000, seed=5)[0]
                       for f in fs]
        assert two == [many_to_two(motion, law, x0, [p], 1.0, n_paths=40_000, seed=5)[0]
                       for p in pairs]
    assert all(e.value > 0 for e in one + two)


def test_each_entry_warns_once_from_the_callers_line():
    m = KilledOU(1.0)
    law = binary_law(0.2, 1.0)  # growth 0.6 < 2: heavy-tailed weights
    heavy, empty = Interval(0.0, math.inf), Interval(-math.inf, -1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        many_to_two(m, law, 1.0, [(heavy, heavy), (empty, empty)], 3.0, n_paths=20_000, seed=1)
    messages = [str(w.message) for w in caught]
    assert sum("heavy-tailed (CV" in msg for msg in messages) == 1
    assert sum("no two-spine path contributed" in msg for msg in messages) == 1
    assert len(caught) == 2 and all(w.filename == __file__ for w in caught)


def test_time_must_be_positive():
    m = ErgodicCTMC.default_example()
    law = binary_law(0.2, 1.0)
    with pytest.raises(ConfigurationError):
        many_to_one(m, law, 0, [lambda s: 1.0], 0.0, 10)
    with pytest.raises(ConfigurationError):
        many_to_two(m, law, 0, [(lambda s: 1.0, lambda s: 1.0)], -1.0, 10)


def test_doob_constant_f_recovers_mean_one():
    m = TransientOU(0.5, 1.0)
    est = doob_weighted_expectation(
        m, m.eigen_data(), 1.0, lambda s: 1.0, 2.0, n_paths=40_000, seed=2
    )
    assert abs(est.value - 1.0) < 4 * est.std_error


def test_doob_matches_tilted_density():
    m = TransientOU(0.5, 1.0)
    x0, t = 1.0, 1.5
    B = Interval(-0.5, 0.5)
    est = doob_weighted_expectation(m, m.eigen_data(), x0, B, t, 60_000, seed=7)
    exact = quad(lambda y: m.tilted_density(x0, y, t), -0.5, 0.5)[0]
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.n_effective < 60_000  # ESS reported, strictly below n


def test_doob_degenerate_weights_raise():
    # long horizon for a killed motion: almost every weight is zero
    m = KilledOU(1.0)
    with pytest.raises(DiagnosticError, match="effective sample size"):
        doob_weighted_expectation(
            m, m.eigen_data(), 0.1, lambda s: 1.0, 6.0, n_paths=30, seed=0
        )


class _BrokenOU(KilledOU):
    def step_many(self, xs, dt, rng):
        raise TypeError("sampler bug")


def test_sampler_errors_propagate():
    m = _BrokenOU(1.0)
    law = binary_law(0.2, 1.0)
    B = Interval(0.0, math.inf)
    with pytest.raises(TypeError, match="sampler bug"):
        many_to_one(m, law, 1.0, [B], 1.0, n_paths=10)
    with pytest.raises(TypeError, match="sampler bug"):
        many_to_two(m, law, 1.0, [(B, B)], 1.0, n_paths=10)
    with pytest.raises(TypeError, match="sampler bug"):
        doob_weighted_expectation(m, m.eigen_data(), 1.0, B, 1.0, n_paths=10)
