"""Extinction-related fixed points of the moment generating operator.

Without absorption the population size is a classical continuous-time
Galton-Watson process, so the extinction probability eta is the minimal root
of the offspring pgf equation f(s) = s. In general eta and
sigma = P(D_infinity = 0) are estimated by Monte Carlo with finite-horizon
proxies: extinction by time T for eta, and D_T < epsilon for sigma with an
epsilon-sweep reported so the proxy error stays visible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .branching import BranchingLaw
from .engine import Observables, SimulationConfig, run_replicas
from .errors import ConfigurationError
from .stats import EstimateWithError, phi_quadrature, replica_D

EPSILON_SWEEP = (1e-2, 1e-3, 1e-4)
DEFAULT_EPSILON = 1e-3

_BISECTION_TOL = 1e-12


def pgf_extinction(law: BranchingLaw) -> float:
    """Minimal root of f(s) = s in [0, 1), by bisection to 1e-12.

    g(s) = f(s) - s is convex with g(0) = p0 >= 0, g(1) = 0 and
    g'(1) = m1 - 1 > 0, so the minimal root is the unique zero in [0, 1)
    (or 1 itself only in the critical case, excluded by m1 > 1).
    """
    if law.pgf(0.0) == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0  # g(lo) > 0 and g(hi - eps) < 0 near 1
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if law.pgf(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wilson_se(k: int, n: int) -> float:
    """Half-width of the one-sigma Wilson score interval for a proportion.

    Behaves like the Wald SE in the interior but stays positive and honest
    when k is at or near 0 or n.
    """
    if n <= 0:
        raise ConfigurationError("need at least one trial")
    return math.sqrt(k * (n - k) / n + 0.25) / (n + 1)


def _wilson_estimate(k, n, excluded=0):
    return EstimateWithError(k / n, wilson_se(k, n), n, excluded)


def eta_curve(
    motion, law, x0, horizon, snapshot_times, n_replicas, seed=0, threads=1, population_cap=None
):
    """P(|xi_t| = 0) at each snapshot time — non-decreasing in t, a finite-
    horizon lower bound for the extinction probability eta(x0)."""
    kwargs = {"population_cap": population_cap} if population_cap else {}
    cfg = SimulationConfig(horizon, tuple(snapshot_times), seed=seed, **kwargs)
    replicas = run_replicas(motion, law, x0, cfg, n_replicas, threads, Observables())
    # a truncated replica is certainly alive, so it counts as non-extinct
    extinct = (~replicas.truncated & (replicas.size == 0)).sum(axis=0)
    return [_wilson_estimate(int(k), n_replicas) for k in extinct]


@dataclass(frozen=True)
class SigmaEstimate:
    """P(D_T < epsilon) at the default epsilon plus the sensitivity sweep."""

    estimate: EstimateWithError
    epsilon: float
    sweep: dict  # epsilon -> EstimateWithError
    epsilon_sensitive: bool


def sigma_estimate(
    motion,
    law,
    x0,
    horizon,
    n_replicas,
    epsilon=DEFAULT_EPSILON,
    seed=0,
    threads=1,
    allow_surrogate=False,
) -> SigmaEstimate:
    """Finite-horizon proxy for sigma(x0) = P(D_infinity = 0)."""
    eigen = motion.eigen_data()
    try:
        phi = phi_quadrature(motion, eigen, law, x0)
        if phi.divergent:
            warnings.warn(
                "Phi diverges: D_t is not L2-bounded and sigma is not "
                "meaningfully estimable from a finite horizon",
                RuntimeWarning,
                stacklevel=2,
            )
    except ConfigurationError:
        pass  # no closed-form E[M_s^2]; proceed without the L2 check

    cfg = SimulationConfig(horizon, (horizon,), seed=seed)
    replicas = run_replicas(motion, law, x0, cfg, n_replicas, threads, Observables(sum_h=eigen))
    D, excluded = replica_D(replicas, 0, eigen, law, x0, allow_surrogate)
    sweep = {
        eps: _wilson_estimate(int((D < eps).sum()), len(D), excluded)
        for eps in sorted(set(EPSILON_SWEEP) | {epsilon})
    }
    main = sweep[epsilon]
    spread = max(e.value for e in sweep.values()) - min(e.value for e in sweep.values())
    sensitive = spread > 2.0 * main.std_error
    if sensitive:
        warnings.warn(
            f"sigma estimate is epsilon-sensitive: sweep range {spread:.4g} "
            f"exceeds 2 SE = {2 * main.std_error:.4g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return SigmaEstimate(main, epsilon, sweep, sensitive)
