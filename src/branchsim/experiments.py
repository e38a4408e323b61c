"""Named experiments over the engine and the spine estimators.

An experiment spec is a flat YAML key-tree (motion block, branching block,
simulation parameters, kind-specific extras). Results are a CSV table with
the fixed columns ``time,estimator,value,std_error,n_effective,
excluded_truncated`` plus a JSON sidecar echoing the spec, wall time,
truncation counts and optional assertion verdicts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import yaml

from .branching import BranchingLaw
from .eigen import martingale_weight
from .engine import Observables, SimulationConfig, run_replicas
from .errors import ConfigurationError
from .fixedpoint import (
    DEFAULT_EPSILON,
    eta_curve,
    pgf_extinction,
    sigma_estimate,
)
from .motions import (
    ContactProcessModT,
    ErgodicCTMC,
    GaltonWatson,
    KilledDriftBM,
    KilledOU,
    TransientOU,
)
from .parallel import WorkerPool
from .spine import many_to_one, many_to_two
from .states import canonicalize
from .stats import ks_distance, martingale_curve, phi_quadrature, replica_statistic
from .testsets import FiniteSet, Interval, Predicate

EXPERIMENT_KINDS = (
    "many-to-one-check",
    "many-to-two-check",
    "martingale-curve",
    "phi",
    "l2-threshold-scan",
    "qsd-fit",
    "eta-sigma",
    "min-h-diagnostic",
)

DEFAULT_SEED = 12345

CSV_COLUMNS = ("time", "estimator", "value", "std_error", "n_effective", "excluded_truncated")


# ---------------------------------------------------------------------------
# motion / test-set construction from config blocks
# ---------------------------------------------------------------------------


def build_motion(block: dict):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigurationError("motion block must be a mapping with a 'kind' key")
    kind = block["kind"]
    params = {k: v for k, v in block.items() if k != "kind"}
    try:
        if kind == "ergodic-ctmc":
            Q = params.pop("Q", None)
            _reject_extra(kind, params)
            return ErgodicCTMC(Q) if Q is not None else ErgodicCTMC.default_example()
        if kind == "galton-watson":
            rho = params.pop("rho")
            _reject_extra(kind, params)
            return GaltonWatson(tuple((int(y), float(p)) for y, p in rho))
        if kind == "contact-mod-t":
            d = int(params.pop("d", 1))
            gamma = float(params.pop("gamma"))
            lam_est = params.pop("lambda_estimate", None)
            _reject_extra(kind, params)
            return ContactProcessModT(d, gamma, None if lam_est is None else float(lam_est))
        if kind == "killed-ou":
            lam = float(params.pop("lambda"))
            _reject_extra(kind, params)
            return KilledOU(lam)
        if kind == "transient-ou":
            lam = float(params.pop("lambda"))
            sigma2 = float(params.pop("sigma2", 1.0))
            _reject_extra(kind, params)
            return TransientOU(lam, sigma2)
        if kind == "killed-drift-bm":
            c = float(params.pop("c"))
            _reject_extra(kind, params)
            return KilledDriftBM(c)
    except KeyError as exc:
        raise ConfigurationError(f"motion kind {kind!r} is missing parameter {exc}") from None
    raise ConfigurationError(f"unknown motion kind {kind!r}")


def _reject_extra(kind, params):
    if params:
        raise ConfigurationError(f"motion kind {kind!r}: unknown parameters {sorted(params)}")


def build_x0(motion, raw):
    if isinstance(motion, (ErgodicCTMC, GaltonWatson)):
        return int(raw)
    if isinstance(motion, ContactProcessModT):
        return canonicalize(frozenset(tuple(int(c) for c in site) for site in raw))
    return float(raw)


def build_test_set(raw):
    """[a, b] -> Interval; {interval: [a, b]} -> Interval; {finite: [...]} -> FiniteSet."""
    bounds = raw.get("interval") if isinstance(raw, dict) else raw
    if isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(
        isinstance(v, (int, float)) for v in bounds
    ):
        return Interval(float(bounds[0]), float(bounds[1]))
    if isinstance(raw, dict) and "finite" in raw:
        return FiniteSet(raw["finite"])
    raise ConfigurationError(f"cannot interpret test set {raw!r}")


def _config_one(state):
    return len(state) == 1


def _config_small(state):
    return len(state) <= 3


def _config_any(state):
    return True


# standard 3-set battery per motion kind, used when the spec supplies none
DEFAULT_TEST_SETS = {
    "ergodic-ctmc": (FiniteSet((0,)), FiniteSet((1, 2)), FiniteSet((0, 1, 2, 3, 4))),
    "galton-watson": (FiniteSet((1,)), FiniteSet((1, 2, 3)), Interval(0.5, math.inf)),
    "killed-ou": (Interval(0.0, math.inf), Interval(1.0, 2.0), Interval(0.0, 1.0)),
    "transient-ou": (Interval(-1.0, 1.0), Interval(1.0, 5.0), Interval(0.0, math.inf)),
    "killed-drift-bm": (Interval(0.0, math.inf), Interval(1.0, 2.0), Interval(0.0, 1.0)),
    "contact-mod-t": (
        Predicate(_config_one, bounded=True),
        Predicate(_config_small, bounded=True),
        Predicate(_config_any, bounded=False),
    ),
}


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    motion_block: dict
    branching_block: dict
    x0: object
    horizon: float
    snapshot_times: tuple
    replicas: int
    seed: int = DEFAULT_SEED
    threads: int = 1  # worker count; the runners see the run's WorkerPool here
    out: Optional[str] = None  # output directory; None writes no files
    extras: dict = field(default_factory=dict)

    def build(self):
        motion = build_motion(self.motion_block)
        law = BranchingLaw(
            tuple((int(k), float(p)) for k, p in self.branching_block["pmf"]),
            float(self.branching_block["rate"]),
        )
        x0 = build_x0(motion, self.x0)
        motion.validate_state(x0)
        eigen = motion.eigen_data()
        if eigen.lam is not None:
            law.validate_against(eigen.lam)
        return motion, law, x0


def parse_spec(document: dict, overrides: dict = None) -> ExperimentSpec:
    doc = dict(document)
    for dotted, value in (overrides or {}).items():
        _apply_override(doc, dotted, value)
    problems = []
    kind = doc.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        problems.append(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    for key in ("motion", "branching", "x0"):
        if key not in doc:
            problems.append(f"missing required key {key!r}")
    branching = doc.get("branching", {})
    if isinstance(branching, dict):
        for key in ("pmf", "rate"):
            if key not in branching:
                problems.append(f"branching block is missing {key!r}")
        for key in branching:
            if key not in ("pmf", "rate"):
                problems.append(f"unknown key {key!r} in the branching block (keys: pmf, rate)")
    else:
        problems.append("branching must be a mapping")
    times = doc.get("snapshot_times", [])
    if not (isinstance(times, (list, tuple)) and times and all(_is_number(t) for t in times)):
        problems.append(f"snapshot_times must be a nonempty list of numbers, got {times!r}")
        times = ()
    horizon = doc.get("horizon", max(times) if times else None)
    if "horizon" in doc and not _is_number(horizon):
        problems.append(f"horizon must be a number, got {horizon!r}")
    replicas = _integer(doc, "replicas", 10_000, 1, problems)
    seed = _integer(doc, "seed", DEFAULT_SEED, 0, problems)
    threads = _integer(doc, "threads", 1, 1, problems)
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        problems.append(f"out must be a directory path, got {out!r}")
    problems.extend(_value_problems(doc))
    if kind in _EXTRAS:
        reads = _EXTRAS[kind]
        where = f" for experiment {kind} (its extras: {', '.join(reads) or 'none'})"
    else:  # only a key that no experiment reads is known to be wrong
        reads, where = {key for extras in _EXTRAS.values() for key in extras}, ""
    problems.extend(f"unknown key {key!r}{where}" for key in doc
                    if key not in _SPEC_KEYS and key not in reads)
    if problems:
        raise ConfigurationError(*problems)
    extras = {k: v for k, v in doc.items() if k not in _SPEC_KEYS}
    return ExperimentSpec(
        kind=kind,
        motion_block=doc["motion"],
        branching_block=branching,
        x0=doc["x0"],
        horizon=float(horizon),
        snapshot_times=tuple(float(t) for t in times),
        replicas=replicas,
        seed=seed,
        threads=threads,
        out=out,
        extras=extras,
    )


# keys every experiment reads, and the extras that each one's runner reads;
# parse_spec rejects any other key
_SPEC_KEYS = ("experiment", "motion", "branching", "x0", "horizon", "snapshot_times", "replicas",
              "seed", "threads", "out")
_EXTRAS = {
    "many-to-one-check": ("test_sets", "spine_paths"),
    "many-to-two-check": ("test_sets", "spine_paths"),
    "martingale-curve": ("allow_surrogate",),
    "phi": (),
    "l2-threshold-scan": ("scan_ratios",),
    "qsd-fit": ("ks_threshold",),
    "eta-sigma": ("epsilon", "allow_surrogate"),
    "min-h-diagnostic": (),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pairs(value) -> bool:
    """A nonempty list of [integer, number] pairs (a pmf or increment law)."""
    return isinstance(value, (list, tuple)) and bool(value) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2
        and _is_integer(pair[0]) and _is_number(pair[1])
        for pair in value
    )


def _is_matrix(value) -> bool:
    return isinstance(value, (list, tuple)) and bool(value) and all(
        isinstance(row, (list, tuple)) and len(row) == len(value) and all(map(_is_number, row))
        for row in value
    )


def _is_sites(value) -> bool:
    """A nonempty list of lattice sites, each a nonempty list of integers."""
    return isinstance(value, (list, tuple)) and bool(value) and all(
        isinstance(site, (list, tuple)) and bool(site) and all(map(_is_integer, site))
        for site in value
    )


_NUMBER = (_is_number, "a number")
_COUNT = (lambda v: _is_integer(v) and v >= 1, "an integer >= 1")

# values read when the spec is built or run: dotted key -> (check, what it must be)
_VALUE_CHECKS = {
    "motion.Q": (_is_matrix, "a square list of lists of numbers"),
    "motion.rho": (_is_pairs, "a list of [increment, probability] pairs with integer increments"),
    "motion.d": _COUNT,
    "motion.gamma": _NUMBER,
    "motion.lambda_estimate": (lambda v: v is None or _is_number(v), "a number"),
    "motion.lambda": _NUMBER,
    "motion.sigma2": _NUMBER,
    "motion.c": _NUMBER,
    "branching.pmf": (_is_pairs, "a list of [count, probability] pairs with integer counts"),
    "branching.rate": _NUMBER,
    "spine_paths": _COUNT,
    "scan_ratios": (lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(_is_number, v)),
                    "a nonempty list of numbers"),
    "ks_threshold": _NUMBER,
    "epsilon": _NUMBER,
    "allow_surrogate": (lambda v: isinstance(v, bool), "true or false"),
}

# what x0 must be, by motion kind
_X0_CHECKS = {
    "ergodic-ctmc": (_is_integer, "an integer state"),
    "galton-watson": (_is_integer, "an integer state"),
    "contact-mod-t": (_is_sites, "a nonempty list of sites, each a list of integers"),
    "killed-ou": _NUMBER,
    "transient-ou": _NUMBER,
    "killed-drift-bm": _NUMBER,
}


def _value_problems(doc) -> list:
    """Type problems of the spec values that are read when the spec is built
    or run: motion parameters, the branching block, x0 and the extras."""
    problems = []
    blocks = {"motion": doc.get("motion"), "branching": doc.get("branching")}
    for dotted, (check, what) in _VALUE_CHECKS.items():
        block, _, key = dotted.rpartition(".")
        source = blocks[block] if block else doc
        if isinstance(source, dict) and key in source and not check(source[key]):
            problems.append(f"{dotted} must be {what}, got {source[key]!r}")
    motion = blocks["motion"]
    kind = motion.get("kind") if isinstance(motion, dict) else None
    if kind in _X0_CHECKS and "x0" in doc:
        check, what = _X0_CHECKS[kind]
        if not check(doc["x0"]):
            problems.append(f"x0 must be {what} for the {kind} motion, got {doc['x0']!r}")
    test_sets = doc.get("test_sets")
    if test_sets is not None:
        if not isinstance(test_sets, (list, tuple)):
            problems.append(f"test_sets must be a list, got {test_sets!r}")
        else:
            for raw in test_sets:
                try:
                    build_test_set(raw)
                except ConfigurationError as exc:
                    problems.extend(exc.messages)
    return problems


def _integer(doc, key, default, minimum, problems):
    """doc[key] (or default) when it is an integer >= minimum; otherwise the
    problem is recorded and default returned."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{key} must be an integer, got {value!r}")
        return default
    if value < minimum:
        problems.append(f"{key} must be >= {minimum}, got {value}")
    return value


def load_spec(path: str, overrides: dict = None) -> ExperimentSpec:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"spec file {path} must contain a mapping")
    return parse_spec(doc, overrides)


def _apply_override(doc, dotted, value):
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"cannot override through non-mapping key {key!r}")
    if isinstance(value, str):
        try:
            value = yaml.safe_load(value)
        except yaml.YAMLError:
            raise ConfigurationError(f"override {dotted}={value!r} is not a YAML value") from None
    node[keys[-1]] = value


# ---------------------------------------------------------------------------
# experiment implementations: each returns (rows, checks)
# rows: dicts with CSV_COLUMNS; checks: (name, passed, detail) when asserting
# ---------------------------------------------------------------------------


def _row(time, estimator, est):
    return {
        "time": time,
        "estimator": estimator,
        "value": est.value,
        "std_error": est.std_error,
        "n_effective": est.n_effective,
        "excluded_truncated": est.excluded_truncated,
    }


def _scalar_row(time, estimator, value, se=0.0, n=1, excluded=0):
    return {
        "time": time,
        "estimator": estimator,
        "value": value,
        "std_error": se,
        "n_effective": n,
        "excluded_truncated": excluded,
    }


def _test_sets(spec):
    raw = spec.extras.get("test_sets")
    if raw is not None:
        return tuple(build_test_set(r) for r in raw)
    return DEFAULT_TEST_SETS[spec.motion_block["kind"]]


def _config(spec):
    return SimulationConfig(spec.horizon, spec.snapshot_times, seed=spec.seed)


def _engine_replicas(spec, motion, law, x0, observables):
    return run_replicas(motion, law, x0, _config(spec), spec.replicas, spec.threads, observables)


def _joint_check(name, a, b, n_se=4.0):
    joint = math.hypot(a.std_error, b.std_error)
    diff = abs(a.value - b.value)
    passed = diff <= n_se * joint or diff == 0
    return (name, passed, f"|{a.value:.5g} - {b.value:.5g}| = {diff:.3g} vs {n_se} SE = {n_se * joint:.3g}")


def count_moments(motion, law, x0, cfg, n_replicas, threads, sets, power):
    """Engine estimates of E[xi_t(B)^power], indexed [set][snapshot time].
    The ReplicaArrays behind them are dropped on return."""
    replicas = run_replicas(motion, law, x0, cfg, n_replicas, threads, Observables(test_sets=sets))
    return [
        [replica_statistic(replicas.counts[:, j, i] ** power, replicas.truncated[:, i])
         for i in range(len(cfg.snapshot_times))]
        for j in range(len(sets))
    ]


def spine_moments(motion, law, x0, sets, times, n_paths, seed, power):
    """Spine estimates of E[xi_t(B)^power], indexed [snapshot time][set]: one
    spine sample per time serves every set."""
    if power == 1:
        return [many_to_one(motion, law, x0, sets, t, n_paths, seed=seed) for t in times]
    pairs = [(B, B) for B in sets]
    return [many_to_two(motion, law, x0, pairs, t, n_paths, seed=seed) for t in times]


def _moment_check(spec, motion, law, x0, power, moment, check):
    """Engine against spine estimates of E[xi_t(B)^power]: rows and checks set
    by set and, within a set, time by time."""
    sets = _test_sets(spec)
    n_spine = int(spec.extras.get("spine_paths", 100_000))
    engine = count_moments(motion, law, x0, _config(spec), spec.replicas, spec.threads, sets, power)
    spine = spine_moments(motion, law, x0, sets, spec.snapshot_times, n_spine, spec.seed + 1, power)
    rows, checks = [], []
    for j, by_time in enumerate(engine):
        for i, t in enumerate(spec.snapshot_times):
            eng, spn = by_time[i], spine[i][j]
            rows.append(_row(t, f"engine_{moment}[B{j}]", eng))
            rows.append(_row(t, f"spine_{moment}[B{j}]", spn))
            checks.append(_joint_check(f"{check} B{j} t={t}", eng, spn))
    return rows, checks


def run_many_to_one_check(spec, motion, law, x0):
    return _moment_check(spec, motion, law, x0, 1, "mean", "many-to-one")


def run_many_to_two_check(spec, motion, law, x0):
    return _moment_check(spec, motion, law, x0, 2, "second_moment", "many-to-two")


def run_martingale_curve(spec, motion, law, x0):
    eigen = motion.eigen_data()
    allow = bool(spec.extras.get("allow_surrogate", False))
    replicas = _engine_replicas(spec, motion, law, x0, Observables(sum_h=eigen))
    curve = martingale_curve(replicas, eigen, law, x0, allow_surrogate=allow)
    rows, checks = [], []
    for i, t in enumerate(curve.times):
        rows.append(
            _scalar_row(t, "mean_D", curve.mean_D[i], curve.se_mean[i], curve.n_effective[i],
                        curve.excluded_truncated[i])
        )
        rows.append(
            _scalar_row(t, "second_moment_D", curve.second_moment_D[i], curve.se_second[i],
                        curve.n_effective[i], curve.excluded_truncated[i])
        )
        diff = abs(curve.mean_D[i] - 1.0)
        tol = 4.0 * curve.se_mean[i]
        checks.append(
            (f"mean D_t = 1 at t={t}", diff <= tol, f"|{curve.mean_D[i]:.5g} - 1| vs 4 SE = {tol:.3g}")
        )
    return rows, checks


def run_phi(spec, motion, law, x0):
    eigen = motion.eigen_data()
    phi = phi_quadrature(motion, eigen, law, x0)
    replicas = _engine_replicas(spec, motion, law, x0, Observables(sum_h=eigen))
    curve = martingale_curve(replicas, eigen, law, x0)
    rows = [
        _scalar_row(t, "second_moment_D", curve.second_moment_D[i], curve.se_second[i],
                    curve.n_effective[i], curve.excluded_truncated[i])
        for i, t in enumerate(curve.times)
    ]
    rows.append(_scalar_row(spec.snapshot_times[-1], "phi_quadrature",
                            phi.value if not phi.divergent else math.inf))
    rows.append(_scalar_row(spec.snapshot_times[-1], "phi_divergent", float(phi.divergent)))
    checks = []
    if phi.divergent:
        checks.append(("phi finite", False, "phi_quadrature flagged divergent"))
    else:
        last = curve.second_moment_D[-1]
        tol = max(4.0 * curve.se_second[-1], 0.05 * phi.value)
        checks.append(
            ("E[D_t^2] plateau = Phi", abs(last - phi.value) <= tol,
             f"|{last:.5g} - {phi.value:.5g}| vs max(4 SE, 5%) = {tol:.3g}")
        )
    return rows, checks


def run_l2_threshold_scan(spec, motion, law, x0):
    if not isinstance(motion, KilledDriftBM):
        raise ConfigurationError("l2-threshold-scan requires the killed-drift-bm motion")
    lam = motion.lam
    ratios = tuple(float(r) for r in spec.extras.get("scan_ratios", (1.2, 1.5, 2.5, 3.0)))
    if any(abs(r - 2.0) < 0.05 for r in ratios):
        raise ConfigurationError("scan ratios within 0.05 of the boundary 2.0 are excluded")
    eigen = motion.eigen_data()
    rows, checks = [], []
    for k, ratio in enumerate(ratios):
        rate = ratio * lam / (law.m1 - 1.0)
        scan_law = BranchingLaw(law.offspring_pmf, rate)
        scan_spec_seed = spec.seed + k
        cfg = SimulationConfig(spec.horizon, spec.snapshot_times, seed=scan_spec_seed)
        replicas = run_replicas(motion, scan_law, x0, cfg, spec.replicas, spec.threads,
                                Observables(sum_h=eigen))
        curve = martingale_curve(replicas, eigen, scan_law, x0)
        by_time = dict(zip(curve.times, range(len(curve.times))))
        for i, t in enumerate(curve.times):
            rows.append(
                _scalar_row(t, f"second_moment_D[ratio={ratio:g}]", curve.second_moment_D[i],
                            curve.se_second[i], curve.n_effective[i], curve.excluded_truncated[i])
            )
        phi = phi_quadrature(motion, eigen, scan_law, x0)
        rows.append(_scalar_row(spec.snapshot_times[-1], f"phi_divergent[ratio={ratio:g}]",
                                float(phi.divergent)))
        should_diverge = ratio < 2.0
        checks.append(
            (f"phi flag at ratio {ratio:g}", phi.divergent == should_diverge,
             f"divergent={phi.divergent}, expected {should_diverge}")
        )
        if 2.0 in by_time and 6.0 in by_time:
            early = curve.second_moment_D[by_time[2.0]]
            late = curve.second_moment_D[by_time[6.0]]
            growth = late / early
            if ratio < 2.0:
                checks.append(
                    (f"divergence signature at ratio {ratio:g}", growth > 3.0,
                     f"E[D_6^2]/E[D_2^2] = {growth:.3g}, need > 3")
                )
            else:
                checks.append(
                    (f"plateau signature at ratio {ratio:g}", growth < 1.25,
                     f"E[D_6^2]/E[D_2^2] = {growth:.3g}, need < 1.25")
                )
    return rows, checks


def qsd_cdf(motion):
    """Closed-form QSD distribution function for the killed diffusions."""
    if isinstance(motion, KilledOU):
        lam = motion.lam
        return lambda x: -math.expm1(-lam * x * x) if x > 0 else 0.0
    if isinstance(motion, KilledDriftBM):
        c = motion.c
        return lambda x: 1.0 - (c * x + 1.0) * math.exp(-c * x) if x > 0 else 0.0
    raise ConfigurationError(f"{type(motion).__name__} has no closed-form QSD")


def run_qsd_fit(spec, motion, law, x0):
    cdf = qsd_cdf(motion)
    threshold = float(spec.extras.get("ks_threshold", 0.05))
    replicas = _engine_replicas(spec, motion, law, x0, Observables(pool=True))
    truncated = replicas.truncated[:, -1]
    excluded = int(truncated.sum())
    surviving = int((~truncated & (replicas.size[:, -1] > 0)).sum())
    pooled = replicas.pooled
    if surviving == 0:
        raise ConfigurationError("no surviving replicas at the final time")
    ks = ks_distance(pooled, cdf)
    t = spec.snapshot_times[-1]
    rows = [
        _scalar_row(t, "ks_distance", ks, 0.0, surviving, excluded),
        _scalar_row(t, "surviving_replicas", float(surviving), 0.0, surviving, excluded),
        _scalar_row(t, "pooled_particles", float(len(pooled)), 0.0, surviving, excluded),
    ]
    checks = [
        (f"KS distance < {threshold}", ks < threshold, f"KS = {ks:.4f} over {len(pooled)} particles")
    ]
    return rows, checks


def run_eta_sigma(spec, motion, law, x0):
    eta = eta_curve(motion, law, x0, spec.horizon, spec.snapshot_times, spec.replicas,
                    seed=spec.seed, threads=spec.threads)
    rows = [_row(t, "eta_hat", e) for t, e in zip(spec.snapshot_times, eta)]
    pgf_eta = pgf_extinction(law)
    rows.append(_scalar_row(spec.snapshot_times[-1], "pgf_extinction", pgf_eta))
    epsilon = float(spec.extras.get("epsilon", DEFAULT_EPSILON))
    allow = bool(spec.extras.get("allow_surrogate", False))
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RuntimeWarning)
        sig = sigma_estimate(motion, law, x0, spec.horizon, spec.replicas, epsilon=epsilon,
                             seed=spec.seed + 1, threads=spec.threads, allow_surrogate=allow)
    for eps, est in sig.sweep.items():
        rows.append(_row(spec.horizon, f"sigma_hat[eps={eps:g}]", est))
    checks = []
    last_eta = eta[-1]
    joint = math.hypot(last_eta.std_error, sig.estimate.std_error)
    checks.append(
        ("sigma >= eta - 2 joint SE",
         sig.estimate.value >= last_eta.value - 2.0 * joint,
         f"sigma = {sig.estimate.value:.4f}, eta = {last_eta.value:.4f}")
    )
    return rows, checks


def run_min_h_diagnostic(spec, motion, law, x0):
    eigen = motion.eigen_data()
    replicas = _engine_replicas(spec, motion, law, x0, Observables(min_h=eigen))
    rows, checks = [], []
    q10_by_time = {}
    for i, t in enumerate(spec.snapshot_times):
        truncated = replicas.truncated[:, i]
        alive = ~truncated & (replicas.size[:, i] > 0)
        vals = replicas.min_h[alive, i]
        excluded, surviving = int(truncated.sum()), int(alive.sum())
        if surviving:
            q10 = float(np.quantile(vals, 0.10))
            q10_by_time[t] = q10
            rows.append(_scalar_row(t, "min_h_q10", q10, 0.0, surviving, excluded))
        rows.append(_scalar_row(t, "survival_rate", surviving / spec.replicas, 0.0,
                                spec.replicas, excluded))
    times = sorted(q10_by_time)
    if len(times) >= 2:
        first, last = q10_by_time[times[0]], q10_by_time[times[-1]]
        checks.append(
            ("no boundary collapse: q10(min h) non-decreasing", last >= first,
             f"q10 at t={times[0]}: {first:.4g}, at t={times[-1]}: {last:.4g}")
        )
    return rows, checks


_RUNNERS = {
    "many-to-one-check": run_many_to_one_check,
    "many-to-two-check": run_many_to_two_check,
    "martingale-curve": run_martingale_curve,
    "phi": run_phi,
    "l2-threshold-scan": run_l2_threshold_scan,
    "qsd-fit": run_qsd_fit,
    "eta-sigma": run_eta_sigma,
    "min-h-diagnostic": run_min_h_diagnostic,
}


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                repr(float(row["time"])),
                row["estimator"],
                repr(float(row["value"])),
                repr(float(row["std_error"])),
                int(row["n_effective"]),
                int(row["excluded_truncated"]),
            ]
        )
    return buf.getvalue()


def run_experiment(spec: ExperimentSpec, do_assert: bool = False, out_dir: str = None):
    """Run one experiment; returns (exit_code, csv_text, metadata)."""
    from . import __version__

    motion, law, x0 = spec.build()
    start = _time.monotonic()
    with WorkerPool(spec.threads) as pool:
        rows, checks = _RUNNERS[spec.kind](replace(spec, threads=pool), motion, law, x0)
    wall = _time.monotonic() - start
    csv_text = rows_to_csv(rows)
    meta = {
        "experiment": spec.kind,
        "spec": {
            "motion": spec.motion_block,
            "branching": spec.branching_block,
            "x0": spec.x0,
            "horizon": spec.horizon,
            "snapshot_times": list(spec.snapshot_times),
            "replicas": spec.replicas,
            "seed": spec.seed,
            "threads": spec.threads,
            "extras": spec.extras,
        },
        "wall_time_seconds": wall,
        "total_excluded_truncated": int(sum(r["excluded_truncated"] for r in rows)),
        "version": __version__,
        "checks": [
            {"name": n, "passed": bool(p), "detail": d} for n, p, d in checks
        ],
    }
    exit_code = 0
    if do_assert and any(not p for _, p, _ in checks):
        exit_code = 3

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, spec.kind)
        with open(base + ".csv", "w") as fh:
            fh.write(csv_text)
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return exit_code, csv_text, meta
