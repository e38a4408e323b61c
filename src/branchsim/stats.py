"""Estimators over population snapshots.

Covers the growth-normalized martingale D_t, the mean-normalized and
empirical measure ratios W_t and nu_t, the L2-limit integral Phi, QSD
goodness-of-fit, and the boundary-collapse diagnostic min h(u_t).

Estimators read either the ReplicaArrays that run_replicas reduces replicas
to when given Observables (the path of the experiment runners), or lists of
PopulationSnapshot. All replica aggregation excludes truncated (cap-hit)
replicas — those are survival-biased — and reports how many were excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .branching import BranchingLaw
from .eigen import EigenData
from .engine import ReplicaArrays
from .errors import ConfigurationError
from .testsets import count_in


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_effective: int
    excluded_truncated: int

    def __post_init__(self):
        if not (math.isfinite(self.std_error) and self.std_error >= 0):
            raise ConfigurationError(f"std_error must be finite >= 0, got {self.std_error}")


def snapshot_statistic(replica_snapshots, index: int, fn) -> EstimateWithError:
    """Mean of fn(snapshot) at one snapshot index across non-truncated replicas."""
    return _mean_estimate(*_snapshot_values(replica_snapshots, index, fn))


def _snapshot_values(replica_snapshots, index, fn):
    """fn(snapshot) over the non-truncated replicas, and the excluded count."""
    vals, excluded = [], 0
    for snaps in replica_snapshots:
        snap = snaps[index]
        if snap.truncated:
            excluded += 1
        else:
            vals.append(fn(snap))
    if not vals:
        raise ConfigurationError("all replicas truncated; nothing to aggregate")
    return np.asarray(vals, dtype=float), excluded


def replica_statistic(values, truncated) -> EstimateWithError:
    """Mean of per-replica values (one column of ReplicaArrays) across the
    replicas not truncated, whose flags are given."""
    return _mean_estimate(*_kept(values, truncated))


def _kept(values, truncated):
    """values of the non-truncated replicas as floats, and the excluded count."""
    if truncated.all():
        raise ConfigurationError("all replicas truncated; nothing to aggregate")
    return np.asarray(values)[~truncated].astype(float), int(truncated.sum())


def _mean_estimate(arr, excluded) -> EstimateWithError:
    se = float(arr.std(ddof=1)) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return EstimateWithError(float(arr.mean()), se, len(arr), excluded)


# ---------------------------------------------------------------------------
# Malthusian martingale
# ---------------------------------------------------------------------------


def _h0(eigen: EigenData, x0, allow_surrogate) -> float:
    """h(x0) once the eigendata is checked to define D_t."""
    if eigen.surrogate and not allow_surrogate:
        raise ConfigurationError(
            "eigendata uses a surrogate h; pass allow_surrogate=True to accept "
            "results only meaningful up to a constant factor"
        )
    if eigen.lam is None:
        raise ConfigurationError("motion eigenvalue is not available")
    h0 = eigen.h(x0)
    if h0 <= 0:
        raise ConfigurationError(f"h(x0) must be positive, got {h0}")
    return h0


def _D(sum_h, t, eigen, law, h0):
    """D_t from sum_u h(u_t), a float or an array of them."""
    return math.exp(-(law.growth_rate - eigen.lam) * t) * sum_h / h0


def malthusian_D(snapshot, eigen: EigenData, law: BranchingLaw, x0, allow_surrogate=False):
    """D_t = (1/h(x0)) sum_u h(u_t) e^{-(r(m1-1) - lambda) t} over live states."""
    h0 = _h0(eigen, x0, allow_surrogate)
    codes = np.array([eigen.motion.encode(s) for s in snapshot.live_states], dtype=float)
    return _D(float(eigen.h_many(codes).sum()), snapshot.time, eigen, law, h0)


def replica_D(replicas: ReplicaArrays, index, eigen, law, x0, allow_surrogate=False):
    """D_t at one snapshot index over the non-truncated replicas of
    ReplicaArrays observed with sum_h, and the excluded count."""
    h0 = _h0(eigen, x0, allow_surrogate)
    sum_h, excluded = _kept(replicas.sum_h[:, index], replicas.truncated[:, index])
    return _D(sum_h, replicas.times[index], eigen, law, h0), excluded


@dataclass(frozen=True)
class MartingaleCurve:
    times: tuple
    mean_D: tuple
    second_moment_D: tuple
    se_mean: tuple
    se_second: tuple
    n_effective: tuple
    excluded_truncated: tuple

    def __post_init__(self):
        lengths = {len(getattr(self, f)) for f in self.__dataclass_fields__}
        if len(lengths) != 1:
            raise ConfigurationError("curve fields must have equal length")


def martingale_curve(
    replicas, eigen, law, x0, allow_surrogate=False
) -> MartingaleCurve:
    """Per-time mean and second moment of D_t across replicas: ReplicaArrays
    observed with sum_h, or lists of PopulationSnapshot."""
    if isinstance(replicas, ReplicaArrays):
        times = replicas.times
        columns = [replica_D(replicas, i, eigen, law, x0, allow_surrogate) for i in range(len(times))]
    else:
        times = tuple(s.time for s in replicas[0])
        D_of = lambda s: malthusian_D(s, eigen, law, x0, allow_surrogate)  # noqa: E731
        columns = [_snapshot_values(replicas, i, D_of) for i in range(len(times))]
    cols = {k: [] for k in ("m", "s", "sem", "ses", "n", "x")}
    for D, excluded in columns:
        d, d2 = _mean_estimate(D, excluded), _mean_estimate(D * D, excluded)
        cols["m"].append(d.value)
        cols["s"].append(d2.value)
        cols["sem"].append(d.std_error)
        cols["ses"].append(d2.std_error)
        cols["n"].append(d.n_effective)
        cols["x"].append(d.excluded_truncated)
    return MartingaleCurve(
        times,
        tuple(cols["m"]),
        tuple(cols["s"]),
        tuple(cols["sem"]),
        tuple(cols["ses"]),
        tuple(cols["n"]),
        tuple(cols["x"]),
    )


# ---------------------------------------------------------------------------
# measure ratios
# ---------------------------------------------------------------------------


def W_ratio(snapshot, B, mean_denominator: float) -> float:
    """xi_t(B) normalized by a supplied mean population size E[xi_t(B')]."""
    if not mean_denominator > 0:
        raise ConfigurationError(f"mean denominator must be > 0, got {mean_denominator}")
    return count_in(snapshot.live_states, B) / mean_denominator


def nu_ratio(snapshot, B, Bp) -> Optional[float]:
    """xi_t(B) / xi_t(B'), or None when the denominator count is zero."""
    denom = count_in(snapshot.live_states, Bp)
    if denom == 0:
        return None
    return count_in(snapshot.live_states, B) / denom


# ---------------------------------------------------------------------------
# the L2-limit integral Phi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiResult:
    """Phi_x = (m2 - m1) int_0^inf E_x[M_s^2] r e^{-r(m1-1)s} ds, with a
    tail classification from the integrand's log-slope over the last decade."""

    value: float  # +inf when divergent
    divergent: bool
    ambiguous: bool
    tail_slope: float

    def __float__(self):
        return self.value


def phi_quadrature(
    motion, eigen: EigenData, law: BranchingLaw, x0, t_max: float = 40.0, tol: float = 0.02
) -> PhiResult:
    coeff = (law.m2 - law.m1) * law.rate_r
    growth = law.growth_rate

    def integrand(s):
        if s <= 0:
            return coeff
        return coeff * eigen.m2_martingale(x0, s) * math.exp(-growth * s)

    ts = np.geomspace(t_max / 10.0, t_max, 12)
    logs = np.log([max(integrand(t), 1e-300) for t in ts])
    slope = float(np.polyfit(ts, logs, 1)[0])

    if slope >= 0:
        return PhiResult(math.inf, True, False, slope)
    ambiguous = abs(slope) < tol

    # imported here: scipy.integrate adds about 27 MB of resident memory
    # (scipy 1.17) to every run, and only this quadrature needs it
    from scipy.integrate import quad

    head, _ = quad(integrand, 0.0, t_max, limit=200)
    tail = integrand(t_max) / abs(slope)  # exponential-tail extrapolation
    return PhiResult(head + tail, False, ambiguous, slope)


# ---------------------------------------------------------------------------
# goodness of fit and boundary diagnostics
# ---------------------------------------------------------------------------


def ks_distance(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of samples and cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if len(xs) == 0:
        raise ConfigurationError("samples must be nonempty")
    n = len(xs)
    F = np.asarray([cdf(x) for x in xs], dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(F - grid)), np.max(np.abs(F - (grid - 1.0 / n)))))


def min_h_statistic(snapshot, eigen: EigenData) -> float:
    """min_u h(u_t) over live states; +inf over the empty population."""
    if snapshot.size == 0:
        return math.inf
    return min(eigen.h(u) for u in snapshot.live_states)
