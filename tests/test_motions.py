import math

import numpy as np
import pytest
from scipy.integrate import quad

from branchsim import (
    ABSORBED,
    ConfigurationError,
    ContactProcessModT,
    ErgodicCTMC,
    FiniteSet,
    GaltonWatson,
    Interval,
    KilledDriftBM,
    KilledOU,
    TransientOU,
    canonicalize,
    contact_event_rates,
    is_absorbed,
)

RNG = lambda seed=0: np.random.default_rng(seed)


def grid_ks(samples, cdf, lo, hi, n_grid=200):
    """Sup |empirical - cdf| on a grid (cheap stand-in for the exact KS)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    grid = np.linspace(lo, hi, n_grid)
    emp = np.searchsorted(samples, grid, side="right") / len(samples)
    return float(np.max(np.abs(emp - np.array([cdf(g) for g in grid]))))


# ---------------------------------------------------------------------------
# ergodic chain
# ---------------------------------------------------------------------------


def test_ctmc_validation():
    with pytest.raises(ConfigurationError, match="sum"):
        ErgodicCTMC([[-1.0, 0.5], [1.0, -1.0]])
    with pytest.raises(ConfigurationError, match="irreducible"):
        ErgodicCTMC([[0.0, 0.0], [1.0, -1.0]])
    with pytest.raises(ConfigurationError, match="square"):
        ErgodicCTMC([[0.0, 0.0]])


def test_ctmc_stationary_solves_balance():
    m = ErgodicCTMC.default_example()
    pi = m.stationary_distribution()
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi @ m.Q, 0.0, atol=1e-12)
    assert m.eigen_data().nu_mass(FiniteSet((0, 1, 2, 3, 4))) == pytest.approx(1.0)


def test_ctmc_step_matches_matrix_exponential():
    # frozen from expm(Q * 0.8)[0, 2] of the fixed example generator
    m = ErgodicCTMC.default_example()
    assert m.transition_density(0, 2, 0.8) == pytest.approx(0.12669515216327482)
    rng = RNG(3)
    n = 100_000
    hits = sum(m.step(0, 0.8, rng) == 2 for _ in range(n))
    p = 0.12669515216327482
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_ctmc_step_many_matches_expm_at_array_dt():
    from scipy.linalg import expm

    m = ErgodicCTMC.default_example()
    n = 60_000
    dt = np.where(np.arange(n) < n // 2, 0.8, 2.5)
    ys = m.step_many(np.full(n, 1.0), dt, RNG(8))
    assert not np.isnan(ys).any()
    for t in (0.8, 2.5):
        p = expm(m.Q * t)[1]
        counts = np.bincount(ys[dt == t].astype(int), minlength=5)
        k = n // 2
        assert np.all(np.abs(counts / k - p) < 4 * np.sqrt(p * (1 - p) / k))
    assert m.decode(ys[:3]) == [int(y) for y in ys[:3]]


def test_ctmc_trivial_eigendata():
    m = ErgodicCTMC.default_example()
    eig = m.eigen_data()
    assert eig.lam == 0.0
    assert eig.h(3) == 1.0
    assert eig.m2_martingale(0, 5.0) == 1.0


# ---------------------------------------------------------------------------
# Galton-Watson chain
# ---------------------------------------------------------------------------


def test_gw_validation():
    with pytest.raises(ConfigurationError, match="subcritical"):
        GaltonWatson(((-1, 0.4), (1, 0.6)))
    with pytest.raises(ConfigurationError, match=r"rho\(-1\)"):
        GaltonWatson(((-2, 0.7), (1, 0.3)))
    with pytest.raises(ConfigurationError, match=">= -1"):
        GaltonWatson(((-3, 0.6), (-1, 0.2), (1, 0.2)))


def test_gw_eigen_parameters():
    gw = GaltonWatson(((-1, 0.6), (1, 0.4)))
    assert gw.lam == pytest.approx(0.2)
    assert gw.sigma_rho2 == pytest.approx(1.0)
    assert gw.eigen_data().h(7) == 7.0
    # 1 + sigma^2 (e^{lam t} - 1) / (lam x) at x=2, t=1.3
    assert gw.eigen_data().m2_martingale(2, 1.3) == pytest.approx(1.7423252166644296)


def test_gw_martingale_is_mean_one():
    gw = GaltonWatson(((-1, 0.6), (1, 0.4)))
    rng = RNG(5)
    t, x0, n = 1.5, 3, 50_000
    vals = np.empty(n)
    for i in range(n):
        y = gw.step(x0, t, rng)
        vals[i] = 0.0 if is_absorbed(y) else y * math.exp(gw.lam * t) / x0
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1.0) < 4 * se
    m2_se = (vals**2).std(ddof=1) / math.sqrt(n)
    assert abs((vals**2).mean() - gw.eigen_data().m2_martingale(x0, t)) < 4 * m2_se


def test_gw_step_many_matches_second_moment_at_array_dt():
    gw = GaltonWatson(((-1, 0.6), (1, 0.4)))
    eig = gw.eigen_data()
    x0, n = 3, 100_000
    dt = np.where(np.arange(n) < n // 2, 0.5, 2.0)
    ys = gw.step_many(np.full(n, float(x0)), dt, RNG(12))
    assert np.all(np.isnan(ys) | ((ys >= 1) & (ys == np.round(ys))))
    for t in (0.5, 2.0):
        M = np.nan_to_num(ys[dt == t]) * math.exp(gw.lam * t) / x0
        k = len(M)
        assert abs(M.mean() - 1.0) < 4 * M.std(ddof=1) / math.sqrt(k)
        m2 = M**2
        assert abs(m2.mean() - eig.m2_martingale(x0, t)) < 4 * m2.std(ddof=1) / math.sqrt(k)


# ---------------------------------------------------------------------------
# contact process modulo translations
# ---------------------------------------------------------------------------


def test_contact_event_rates_single_site():
    config = frozenset({(0,)})
    events = dict(contact_event_rates(config, gamma=2.0))
    # one recovery to the trap, two infections canonicalizing to one class
    assert events[ABSORBED] == 1.0
    two_site = canonicalize(frozenset({(0,), (1,)}))
    assert events[two_site] == pytest.approx(4.0)
    assert len(events) == 2


def test_contact_event_rates_merge_recoveries():
    # both recoveries of a symmetric pair give the same singleton class
    config = frozenset({(0,), (1,)})
    events = dict(contact_event_rates(config, gamma=0.5))
    assert events[frozenset({(0,)})] == pytest.approx(2.0)


def test_contact_step_stays_canonical():
    m = ContactProcessModT(1, 0.3)
    rng = RNG(9)
    state = frozenset({(0,)})
    for _ in range(50):
        state = m.step(state, 0.5, rng)
        if is_absorbed(state):
            break
        assert canonicalize(state) == state
    eig = m.eigen_data()
    assert eig.surrogate and eig.lam is None
    assert eig.h(frozenset({(0,), (1,), (4,)})) == 3.0
    with pytest.raises(ConfigurationError):
        eig.nu_mass(Interval(0.0, 1.0))


def test_contact_step_many_stays_canonical():
    m = ContactProcessModT(1, 0.4)
    start = frozenset({(0,), (1,)})
    code = m.encode(start)
    assert m.decode([code]) == [start] and m.encode(start) == code
    n = 400
    ys = m.step_many(np.full(n, code), np.linspace(0.1, 3.0, n), RNG(10))
    states = m.decode(ys)
    alive = [s for s in states if not is_absorbed(s)]
    assert alive and len(alive) < n  # some lineages die out, some survive
    assert all(canonicalize(s) == s for s in alive)
    assert sum(is_absorbed(s) for s in states) == int(np.isnan(ys).sum())


def test_contact_requires_canonical_state():
    m = ContactProcessModT(1, 0.3)
    with pytest.raises(ConfigurationError, match="canonical"):
        m.validate_state(frozenset({(3,)}))


# ---------------------------------------------------------------------------
# killed Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------


def test_killed_ou_density_and_survival_spot_values():
    m = KilledOU(1.0)
    assert m.transition_density(1.0, 0.5, 0.7) == pytest.approx(0.4760477077464555)
    assert m.survival_probability(1.0, 2.0) == pytest.approx(0.1531743128460086)
    # survival equals the integrated sub-probability density
    q = quad(lambda y: m.transition_density(1.0, y, 2.0), 0, 40)[0]
    assert m.survival_probability(1.0, 2.0) == pytest.approx(q, rel=1e-8)


def test_killed_ou_sampler_matches_density():
    m = KilledOU(1.0)
    x0, t, n = 1.0, 0.8, 200_000
    ys = m.step_many(np.full(n, x0), t, RNG(1))
    alive = ys[~np.isnan(ys)]
    surv = m.survival_probability(x0, t)
    assert abs(len(alive) / n - surv) < 4 * math.sqrt(surv * (1 - surv) / n)
    cdf = lambda x: quad(lambda y: m.transition_density(x0, y, t), 0, x)[0] / surv
    assert grid_ks(alive, cdf, 0.01, 3.0) < 0.01


def _killed_ou_step_many_reference(lam, xs, dt, rng):
    """KilledOU.step_many as one expression per quantity: the in-place sampler
    must give the same bits on the same draws."""
    xs = np.asarray(xs, dtype=float)
    tau = np.expm1(2.0 * lam * np.asarray(dt, dtype=float)) / (2.0 * lam)
    z = rng.normal(0.0, 1.0, xs.size) * np.sqrt(tau) + xs
    u = rng.random(xs.size)
    with np.errstate(invalid="ignore"):
        killed = (z <= 0.0) | (u < np.exp(np.where(z > 0, -2.0 * xs * z / tau, 0.0)))
    out = np.exp(-lam * np.asarray(dt, dtype=float)) * z
    out[killed | np.isnan(xs)] = np.nan
    return out


def test_killed_ou_step_many_matches_reference_bits():
    xs = np.concatenate([RNG(7).exponential(1.0, 5000), [np.nan, 1e-9, 40.0, np.nan]])
    dts = {
        "scalar": 0.37,
        "array": RNG(8).exponential(0.5, xs.size) + 1e-12,
    }
    for lam in (1.0, 0.3):
        for name, dt in dts.items():
            got = KilledOU(lam).step_many(xs, dt, RNG(9))
            want = _killed_ou_step_many_reference(lam, xs, dt, RNG(9))
            assert got.tobytes() == want.tobytes(), (lam, name)
            assert np.isnan(got[np.isnan(xs)]).all()
            assert 0 < np.isnan(got).sum() < xs.size


def test_killed_ou_m2_closed_form_vs_quadrature():
    m = KilledOU(1.0)
    eig = m.eigen_data()
    for t in (0.4, 1.5):
        by_quad = (
            math.exp(2 * t)
            * quad(lambda y: eig.h(y) ** 2 * m.transition_density(1.0, y, t), 0, 40)[0]
            / eig.h(1.0) ** 2
        )
        assert eig.m2_martingale(1.0, t) == pytest.approx(by_quad, rel=1e-8)
    assert eig.m2_martingale(1.0, 1.5) == pytest.approx(5.015197687700584)


def test_killed_ou_nu():
    eig = KilledOU(1.0).eigen_data()
    assert eig.nu_mass(Interval(1.0, 2.0)) == pytest.approx(math.exp(-1) - math.exp(-4))
    assert eig.nu_mass(Interval(0.0, math.inf)) == pytest.approx(1.0)
    assert eig.nu_density(1.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert eig.h(ABSORBED) == 0.0


# ---------------------------------------------------------------------------
# transient Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------


def test_transient_ou_h_and_nu():
    m = TransientOU(0.5, 1.0)
    eig = m.eigen_data()
    assert eig.h(0.0) == pytest.approx(math.sqrt(0.5 / math.pi))
    assert eig.nu_mass(Interval(-1.0, 3.0)) == pytest.approx(4.0)  # Lebesgue
    assert eig.nu_mass(FiniteSet((1.0,))) == 0.0
    with pytest.raises(ConfigurationError, match="unbounded"):
        eig.nu_mass(Interval(0.0, math.inf))
    # h integrates to 1 against nu = Lebesgue, consistent with mean-one M_t
    assert quad(lambda x: eig.h(x), -20, 20)[0] == pytest.approx(1.0, rel=1e-8)


def test_transient_ou_martingale_moments():
    m = TransientOU(0.5, 1.0)
    eig = m.eigen_data()
    x0, t, n = 1.0, 2.0, 400_000
    ys = m.step_many(np.full(n, x0), t, RNG(2))
    M = eig.h_many(ys) * math.exp(eig.lam * t) / eig.h(x0)
    assert abs(M.mean() - 1.0) < 4 * M.std(ddof=1) / math.sqrt(n)
    m2 = M**2
    assert eig.m2_martingale(x0, t) == pytest.approx(3.1650534017742284)
    assert abs(m2.mean() - 3.1650534017742284) < 4 * m2.std(ddof=1) / math.sqrt(n)


def test_transient_ou_samplers_accept_array_dt():
    m = TransientOU(0.5, 1.0)
    x0, n = 1.0, 100_000
    dt = np.where(np.arange(n) < n // 2, 0.5, 1.5)
    for sampler, moments in ((m.step_many, m.moments), (m.tilted_step_many, m.tilted_moments)):
        ys = sampler(np.full(n, x0), dt, RNG(3))
        for t in (0.5, 1.5):
            mean, var = moments(x0, t)
            sample = ys[dt == t]
            assert abs(sample.mean() - mean) < 4 * math.sqrt(var / len(sample))
            assert sample.var(ddof=1) == pytest.approx(var, rel=0.03)


def test_transient_ou_tilted_sampler_matches_tilted_density():
    m = TransientOU(0.5, 1.0)
    x0, t, n = 1.5, 1.2, 200_000
    ys = m.tilted_step_many(np.full(n, x0), t, RNG(4))
    mean, var = m.tilted_moments(x0, t)
    assert abs(ys.mean() - mean) < 4 * math.sqrt(var / n)
    cdf = lambda x: quad(lambda y: m.tilted_density(x0, y, t), mean - 10, x)[0]
    assert grid_ks(ys, cdf, mean - 3, mean + 3) < 0.01


# ---------------------------------------------------------------------------
# killed drifted Brownian motion
# ---------------------------------------------------------------------------


def test_killed_bm_eigenvalue_and_scaling():
    m = KilledDriftBM(1.0)
    assert m.lam == 0.5
    assert m.eigen_data().p(4.0) == pytest.approx(4.0**-1.5)
    assert m.transition_density(1.0, 1.0, 1.0) == pytest.approx(0.2092235479813767)


def test_killed_bm_survival_closed_form():
    m = KilledDriftBM(1.0)
    assert m.survival_probability(1.0, 2.0) == pytest.approx(0.11452457401399349)
    q = quad(lambda y: m.transition_density(1.0, y, 2.0), 0, 50)[0]
    assert m.survival_probability(1.0, 2.0) == pytest.approx(q, rel=1e-8)


def test_killed_bm_sampler_matches_density():
    m = KilledDriftBM(1.0)
    x0, t, n = 1.0, 1.0, 200_000
    ys = m.step_many(np.full(n, x0), t, RNG(6))
    alive = ys[~np.isnan(ys)]
    surv = m.survival_probability(x0, t)
    assert abs(len(alive) / n - surv) < 4 * math.sqrt(surv * (1 - surv) / n)
    cdf = lambda x: quad(lambda y: m.transition_density(x0, y, t), 0, x)[0] / surv
    assert grid_ks(alive, cdf, 0.01, 4.0) < 0.01


def test_killed_bm_m2_closed_form_vs_quadrature():
    m = KilledDriftBM(1.0)
    eig = m.eigen_data()
    for t in (0.5, 2.0):
        by_quad = (
            math.exp(2 * m.lam * t)
            * quad(lambda y: eig.h(y) ** 2 * m.transition_density(1.0, y, t), 0, 60)[0]
            / eig.h(1.0) ** 2
        )
        assert eig.m2_martingale(1.0, t) == pytest.approx(by_quad, rel=1e-8)


def test_killed_bm_nu_mass():
    eig = KilledDriftBM(1.0).eigen_data()
    exact = quad(lambda x: 2 * 0.5 * x * math.exp(-x), 1, 2)[0]
    assert eig.nu_mass(Interval(1.0, 2.0)) == pytest.approx(exact)
    assert eig.nu_mass(Interval(0.0, math.inf)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# shared step contract
# ---------------------------------------------------------------------------


def test_step_rejects_bad_input():
    m = KilledOU(1.0)
    rng = RNG(0)
    with pytest.raises(ConfigurationError):
        m.step(ABSORBED, 1.0, rng)
    with pytest.raises(ConfigurationError):
        m.step(1.0, 0.0, rng)
    with pytest.raises(ConfigurationError):
        m.validate_state(-1.0)
