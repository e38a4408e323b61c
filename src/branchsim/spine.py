"""Single-path and two-path (2-spine) moment estimators.

These realize the exact first/second-moment identities for population sums:

* one path:  E_x[sum_u f(u_t)] = e^{r(m1-1)t} E_x[f(X_t)]
* two paths: E_x[sum_{u,v} f(u_t) g(v_t)]
             = e^{2r(m1-1)t} E[e^{[Var(m)+(m1-1)^2] r (E^t)} f(X1_t) g(X2_t)]

where the pair coincides until an exponential split time E of rate
(m2-m1) r and evolves independently afterwards. Note the two distinct
constants: the split rate uses m2-m1 while the weight exponent uses
Var(m) + (m1-1)^2 = m2 - 2 m1 + 1.

They serve as cheap oracles against the full population engine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .branching import BranchingLaw
from .eigen import EigenData, martingale_weight
from .errors import ConfigurationError, DiagnosticError
from .motions import MotionModel
from .parallel import replica_rng
from .stats import EstimateWithError
from .testsets import FiniteSet, Interval


def _terminal_values(motion, x0, t, n, rng):
    """Codes of n i.i.d. states at time t started from x0 (exact one-shot sampling)."""
    return motion.step_many(np.full(n, motion.encode(x0)), t, rng)


def _evaluate(motion, f, values, where):
    """f at the states encoded by values where the mask holds, 0 elsewhere
    (f vanishes on absorbed states, and a product only needs f != 0). A test
    set is evaluated on the codes by its array membership: over the whole
    array when that membership is pure array arithmetic, on the masked codes
    when it decodes them; any other f is called on each masked decoded state."""
    if isinstance(f, FiniteSet) or (isinstance(f, Interval) and motion.codes_are_values):
        return (f.contains_many(values, motion) & where).astype(float)
    out = np.zeros(len(values))
    if hasattr(f, "contains_many"):
        out[where] = f.contains_many(values[where], motion)
    else:
        out[where] = [float(f(s)) for s in motion.decode(values[where])]
    return out


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    se = float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(values.mean()), se


def many_to_one(
    motion: MotionModel,
    law: BranchingLaw,
    x0,
    fs,
    t: float,
    n_paths: int,
    seed: int = 0,
) -> list:
    """e^{r(m1-1)t} x Monte Carlo mean of f(X_t) over single paths, one
    EstimateWithError per f in fs. Every f is evaluated on the same paths."""
    if not t > 0:
        raise ConfigurationError(f"t must be > 0, got {t}")
    rng = replica_rng(seed, 0)
    values = _terminal_values(motion, x0, t, n_paths, rng)
    alive = ~np.isnan(values)
    scale = math.exp(law.growth_rate * t)
    estimates = []
    for f in fs:
        mean, se = _mean_se(_evaluate(motion, f, values, alive))
        estimates.append(EstimateWithError(scale * mean, scale * se, n_paths, 0))
    return estimates


@dataclass(frozen=True)
class TwoSpinePath:
    """A coupled pair of paths sharing a trunk up to the split time."""

    split_time: float
    common_state: object  # state at min(split_time, t)
    terminal_1: object
    terminal_2: object


def _split_rate(law: BranchingLaw) -> float:
    split_rate = (law.m2 - law.m1) * law.rate_r
    if not split_rate > 0:
        raise ConfigurationError(f"(m2 - m1) r must be > 0, got {split_rate}")
    return split_rate


PATH_CHUNK = 32_768  # paths moved per step_many call in many_to_two


def _two_spine_states(motion, law, x0, t, n, rng):
    """n two-spine paths as encoded arrays (E, trunk, y1, y2): the split times,
    the trunks at min(E, t), then both branches of the paths that split alive
    (a path that splits late or dies on the trunk keeps y1 = y2 = trunk)."""
    E = rng.exponential(1.0 / _split_rate(law), n)
    trunk = motion.step_many(np.full(n, motion.encode(x0)), np.minimum(E, t), rng)
    y1, y2 = trunk.copy(), trunk.copy()
    split = np.flatnonzero((E < t) & ~np.isnan(trunk))
    y1[split] = motion.step_many(trunk[split], t - E[split], rng)
    y2[split] = motion.step_many(trunk[split], t - E[split], rng)
    return E, trunk, y1, y2


def sample_two_spine(motion, law: BranchingLaw, x0, t: float, rng) -> TwoSpinePath:
    """One two-spine path: element 0 of a one-path call of the array sampler."""
    E, trunk, y1, y2 = _two_spine_states(motion, law, x0, t, 1, rng)
    common, terminal_1, terminal_2 = motion.decode(np.concatenate([trunk, y1, y2]))
    return TwoSpinePath(float(E[0]), common, terminal_1, terminal_2)


def _two_spine_values(motion, law, x0, pairs, t, rng, out):
    """Weighted f(X1_t) g(X2_t) of out.shape[1] two-spine paths into out, one
    row per (f, g) in pairs."""
    weight_coeff = (law.var_m + (law.m1 - 1.0) ** 2) * law.rate_r
    E, _, y1, y2 = _two_spine_states(motion, law, x0, t, out.shape[1], rng)
    weight = np.exp(weight_coeff * np.minimum(E, t))
    alive1, alive2 = ~np.isnan(y1), ~np.isnan(y2)
    for row, (f, g) in zip(out, pairs):
        f1 = _evaluate(motion, f, y1, alive1)
        np.multiply(weight, f1, out=row)
        row *= _evaluate(motion, g, y2, (f1 != 0) & alive2)


def many_to_two(
    motion: MotionModel,
    law: BranchingLaw,
    x0,
    pairs,
    t: float,
    n_paths: int,
    seed: int = 0,
) -> list:
    """Two-spine estimates of E_x[sum_{u,v} f(u_t) g(v_t)], one
    EstimateWithError per (f, g) in pairs. Every pair is evaluated on the
    same paths."""
    if not t > 0:
        raise ConfigurationError(f"t must be > 0, got {t}")
    rng = replica_rng(seed, 0)
    vals = np.empty((len(pairs), n_paths))
    for lo in range(0, n_paths, PATH_CHUNK):
        _two_spine_values(motion, law, x0, pairs, t, rng, vals[:, lo:lo + PATH_CHUNK])
    scale = math.exp(2.0 * law.growth_rate * t)
    estimates = []
    for row in vals:
        mean, se = _mean_se(row)
        cv = float(row.std(ddof=1)) / abs(mean) if mean != 0 else math.inf
        if mean == 0:
            warnings.warn(
                f"no two-spine path contributed (all {n_paths} weights are 0), so 0 +- 0 "
                "is not an estimate: either f or g vanishes on every reachable state, "
                "or contributing paths are too rare because the weights are "
                "heavy-tailed near/below the L2 threshold",
                RuntimeWarning,
                stacklevel=2,
            )
        elif cv > 10.0:
            warnings.warn(
                f"two-spine weights are heavy-tailed (CV = {cv:.1f} > 10); "
                "estimate may be unreliable near/below the L2 threshold",
                RuntimeWarning,
                stacklevel=2,
            )
        estimates.append(EstimateWithError(scale * mean, scale * se, n_paths, 0))
    return estimates


def doob_weighted_expectation(
    motion: MotionModel,
    eigen: EigenData,
    x0,
    f,
    t: float,
    n_paths: int,
    seed: int = 0,
) -> EstimateWithError:
    """Tilted expectation E~_x[f(X_t)] = E_x[M_t f(X_t)] by importance sampling
    over paths simulated under the untilted law."""
    if not t > 0:
        raise ConfigurationError(f"t must be > 0, got {t}")
    if eigen.h(x0) <= 0:
        raise ConfigurationError(f"h(x0) must be positive at x0={x0!r}")
    rng = replica_rng(seed, 0)
    values = _terminal_values(motion, x0, t, n_paths, rng)
    weights = np.array([martingale_weight(eigen, x0, s, t) for s in motion.decode(values)])
    vals = weights * _evaluate(motion, f, values, ~np.isnan(values))
    wsum = float(weights.sum())
    ess = wsum * wsum / float((weights * weights).sum()) if wsum > 0 else 0.0
    if ess < 10.0:
        raise DiagnosticError(
            f"effective sample size {ess:.2f} < 10; importance weights degenerate"
        )
    mean, se = _mean_se(vals)
    return EstimateWithError(mean, se, int(ess), 0)
