"""Self-check battery: the library's headline identities at desk scale.

Each criterion prints one pass/fail line with observed vs. expected values
and the tolerance used. Tolerances are standard-error calibrated (4 SE joint
bands) except where a closed-form target admits a percentage band, so the
verdicts are stable under seed changes at any replica scale.

``level="quick"`` divides replica counts by 5; ``level="full"`` uses the
reference counts (sized for a multi-core machine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import BranchingLaw, binary_law
from .engine import SimulationConfig, run_replicas
from .errors import ConfigurationError
from .fixedpoint import pgf_extinction, sigma_estimate, wilson_se
from .motions import ErgodicCTMC, GaltonWatson, KilledDriftBM, KilledOU, TransientOU
from .parallel import WorkerPool
from .stats import ks_distance, martingale_curve, min_h_statistic, phi_quadrature
from .experiments import DEFAULT_TEST_SETS, count_moments, qsd_cdf, spine_moments

SEED = 20240915


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.criterion}: {self.name} — {self.detail}"


def _scaled(n, scale):
    return max(200, int(n * scale))


# the five motions with exact eigendata, each with a supercritical law whose
# growth rate clears that motion's L2 threshold
def _battery():
    return {
        "ergodic-ctmc": (ErgodicCTMC.default_example(), binary_law(0.2, 1.0), 0),
        "galton-watson": (GaltonWatson(((-1, 0.6), (1, 0.4))), binary_law(0.2, 1.0), 1),
        "killed-ou": (KilledOU(1.0), binary_law(0.2, 2.0), 1.0),
        "transient-ou": (TransientOU(0.5, 1.0), binary_law(0.2, 1.0), 0.5),
        "killed-drift-bm": (KilledDriftBM(1.0), binary_law(0.2, 25.0 / 12.0), 1.0),
    }


def _joint(name, criterion, a_val, a_se, b_val, b_se, n_se=4.0):
    joint = math.hypot(a_se, b_se)
    diff = abs(a_val - b_val)
    passed = diff <= n_se * joint or diff == 0.0
    return CriterionResult(
        criterion, name, passed,
        f"{a_val:.5g} vs {b_val:.5g}, |diff| = {diff:.3g}, tol = {n_se} SE = {n_se * joint:.3g}",
    )


def _moment_criterion(criterion, power, scale, threads):
    """Engine E[xi_t(B)^power] vs spine estimate, 3 sets x 3 times x 5 motions."""
    out = []
    times = (0.5, 1.0, 2.0)
    for kind, (motion, law, x0) in _battery().items():
        sets = DEFAULT_TEST_SETS[kind]
        cfg = SimulationConfig(times[-1], times, seed=SEED)
        engine = count_moments(motion, law, x0, cfg, _scaled(10_000, scale), threads, sets, power)
        spine = spine_moments(motion, law, x0, sets, times, _scaled(100_000, scale), SEED + 1,
                              power)
        for j in range(len(sets)):
            for i, t in enumerate(times):
                eng, spn = engine[j][i], spine[i][j]
                out.append(
                    _joint(f"{kind} B{j} t={t}", criterion, eng.value, eng.std_error,
                           spn.value, spn.std_error)
                )
    return out


def criterion_1_many_to_one(scale=1.0, threads=1):
    """Engine E[xi_t(B)] vs single-path estimate, 3 sets x 3 times x 5 motions."""
    return _moment_criterion("many-to-one", 1, scale, threads)


def criterion_2_many_to_two(scale=1.0, threads=1):
    """Engine E[xi_t(B)^2] vs two-spine estimate, same battery."""
    return _moment_criterion("many-to-two", 2, scale, threads)


def criterion_3_martingale_mean(scale=1.0, threads=1):
    """mean D_t = 1 within 4 SE at t in {1, 2, 4} for the h-exact motions."""
    out = []
    times = (1.0, 2.0, 4.0)
    for kind, (motion, law, x0) in _battery().items():
        eigen = motion.eigen_data()
        cfg = SimulationConfig(times[-1], times, seed=SEED)
        replicas = run_replicas(motion, law, x0, cfg, _scaled(10_000, scale), threads)
        curve = martingale_curve(replicas, eigen, law, x0)
        for i, t in enumerate(times):
            out.append(
                _joint(f"{kind} t={t}", "martingale-mean-one",
                       curve.mean_D[i], curve.se_mean[i], 1.0, 0.0)
            )
    return out


def criterion_4_phi(scale=1.0, threads=1):
    """Engine E[D_t^2] plateau vs Phi, for the ergodic chain and killed OU."""
    out = []
    cases = {
        "ergodic-ctmc": (ErgodicCTMC.default_example(), binary_law(0.2, 1.0), 0),
        # growth rate 2.0 sits well above lambda = 1, so the Phi integrand
        # decays like e^{-s} and the t = 6 plateau captures nearly all of it
        "killed-ou": (KilledOU(1.0), binary_law(0.2, 2.0 / 0.6), 1.0),
    }
    for kind, (motion, law, x0) in cases.items():
        eigen = motion.eigen_data()
        phi = phi_quadrature(motion, eigen, law, x0)
        times = (2.0, 4.0, 6.0)
        cfg = SimulationConfig(times[-1], times, seed=SEED)
        replicas = run_replicas(motion, law, x0, cfg, _scaled(10_000, scale), threads)
        curve = martingale_curve(replicas, eigen, law, x0)
        last, se = curve.second_moment_D[-1], curve.se_second[-1]
        tol = max(4.0 * se, 0.05 * phi.value)
        passed = (not phi.divergent) and abs(last - phi.value) <= tol
        detail = f"E[D_6^2] = {last:.4f} vs Phi = {phi.value:.4f}, tol = {tol:.3g}"
        if kind == "ergodic-ctmc":
            exact = (law.m2 - law.m1) / (law.m1 - 1.0)
            detail += f" (closed form (m2-m1)/(m1-1) = {exact:.4f})"
            passed = passed and abs(phi.value - exact) < 0.05 * exact
        out.append(CriterionResult("phi-reproduction", kind, passed, detail))
    return out


def criterion_5_l2_boundary(scale=1.0, threads=1):
    """Killed drifted BM: divergence/plateau signatures straddling 2 lambda."""
    out = []
    motion = KilledDriftBM(1.0)
    lam = motion.lam
    eigen = motion.eigen_data()
    x0 = 1.0
    for ratio in (1.2, 1.5, 2.0, 2.5, 3.0):
        if abs(ratio - 2.0) < 0.05:
            continue  # boundary itself excluded from the scan grid
        law = binary_law(0.2, ratio * lam / 0.6)
        phi = phi_quadrature(motion, eigen, law, x0)
        should = ratio < 2.0
        out.append(
            CriterionResult(
                "l2-boundary", f"phi flag at r(m1-1) = {ratio:g} lambda",
                phi.divergent == should,
                f"divergent={phi.divergent} (tail slope {phi.tail_slope:+.3f}), expected {should}",
            )
        )
    for ratio, check in ((1.5, "divergence"), (2.5, "plateau")):
        law = binary_law(0.2, ratio * lam / 0.6)
        times = (2.0, 6.0)
        cfg = SimulationConfig(6.0, times, seed=SEED)
        replicas = run_replicas(motion, law, x0, cfg, _scaled(10_000, scale), threads)
        curve = martingale_curve(replicas, eigen, law, x0)
        growth = curve.second_moment_D[1] / curve.second_moment_D[0]
        passed = growth > 3.0 if check == "divergence" else growth < 1.25
        need = "> 3" if check == "divergence" else "< 1.25"
        out.append(
            CriterionResult(
                "l2-boundary", f"{check} signature at {ratio:g} lambda", passed,
                f"E[D_6^2]/E[D_2^2] = {growth:.3g}, need {need}",
            )
        )
    return out


def criterion_6_qsd(scale=1.0, threads=1):
    """Pooled surviving particles at t=6 vs the closed-form QSD density."""
    out = []
    cases = (
        ("killed-ou", KilledOU(1.0), binary_law(0.2, 2.0 / 0.6), 1.0, 0.05),
        # x0 = 5 puts the time-6 conditioned law closest to the QSD (the
        # exact KS of the mean particle law is 0.014 there, against ~0.15
        # from x0 = 1: mixing toward the Yaglom limit is only polynomial)
        ("killed-drift-bm", KilledDriftBM(1.0), binary_law(0.2, 1.25 / 0.6), 5.0, 0.07),
    )
    for kind, motion, law, x0, threshold in cases:
        cdf = qsd_cdf(motion)
        cfg = SimulationConfig(6.0, (6.0,), seed=SEED)
        n = _scaled(6_000, scale)
        replicas = run_replicas(motion, law, x0, cfg, n, threads)
        pooled, surviving = [], 0
        for snaps in replicas:
            snap = snaps[0]
            if not snap.truncated and snap.size > 0:
                surviving += 1
                pooled.extend(float(u) for u in snap.live_states)
        if surviving == 0:
            out.append(CriterionResult("qsd-fit", kind, False, "no surviving replicas"))
            continue
        ks = ks_distance(pooled, cdf)
        enough = surviving >= max(100, int(1_000 * scale))
        out.append(
            CriterionResult(
                "qsd-fit", kind, ks < threshold and enough,
                f"KS = {ks:.4f} (tol {threshold}) over {len(pooled)} particles "
                f"from {surviving} surviving replicas",
            )
        )
    return out


def criterion_7_eta_sigma(scale=1.0, threads=1):
    """Fixed-point structure: eta vs sigma per motion class."""
    import warnings

    out = []
    # (a) no absorption: eta plateau = pgf fixed point, sigma = eta
    motion, law, x0 = ErgodicCTMC.default_example(), binary_law(0.2, 1.0), 0
    n = _scaled(10_000, scale)
    horizon = 8.0
    cfg = SimulationConfig(horizon, (horizon,), seed=SEED)
    replicas = run_replicas(motion, law, x0, cfg, n, threads)
    k_ext = sum(1 for snaps in replicas if not snaps[0].truncated and snaps[0].size == 0)
    eta_hat, eta_se = k_ext / n, wilson_se(k_ext, n)
    target = pgf_extinction(law)
    out.append(_joint("no-absorption eta plateau = pgf root", "eta-sigma",
                      eta_hat, eta_se, target, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sig = sigma_estimate(motion, law, x0, horizon, n, seed=SEED + 1, threads=threads)
    out.append(_joint("no-absorption sigma = eta", "eta-sigma",
                      sig.estimate.value, sig.estimate.std_error, eta_hat, eta_se))

    # (b) transient OU at x0 = 5 with a no-death law: eta = 0 yet 0 < sigma < 1.
    # The drift must be weak enough that lineages revisiting the bulk of h
    # remain observable from x0 = 5 at desk scale; 0.2 gives sigma ~ 0.67
    motion = TransientOU(0.2, 1.0)
    law = BranchingLaw(((2, 1.0),), 1.0)
    n_b = _scaled(4_000, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sig = sigma_estimate(motion, law, 5.0, 6.0, n_b, seed=SEED + 2, threads=threads)
    s, se = sig.estimate.value, sig.estimate.std_error
    out.append(
        CriterionResult(
            "eta-sigma", "transient OU: eta = 0 < sigma < 1",
            5.0 * se <= s <= 1.0 - 5.0 * se,
            f"sigma_hat = {s:.4f} (SE {se:.4f}), eta = 0 exactly (no zero-offspring events)",
        )
    )

    # (c) killed drifted BM above the L2 threshold: strong supercriticality
    motion = KilledDriftBM(1.0)
    law = binary_law(0.2, 1.25 / 0.6)
    n_c = _scaled(10_000, scale)
    horizon = 6.0
    cfg = SimulationConfig(horizon, (horizon,), seed=SEED + 3)
    replicas = run_replicas(motion, law, 1.0, cfg, n_c, threads)
    k_ext = sum(1 for snaps in replicas if not snaps[0].truncated and snaps[0].size == 0)
    eta_hat, eta_se = k_ext / n_c, wilson_se(k_ext, n_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sig = sigma_estimate(motion, law, 1.0, horizon, n_c, seed=SEED + 3, threads=threads)
    out.append(_joint("killed drifted BM (L2 regime): sigma = eta", "eta-sigma",
                      sig.estimate.value, sig.estimate.std_error, eta_hat, eta_se))
    return out


def criterion_8_strong_supercriticality(scale=1.0, threads=1):
    out = []
    # killed OU conditioned on survival to t=6: min h does not collapse to 0
    motion, law, x0 = KilledOU(1.0), binary_law(0.2, 2.0 / 0.6), 1.0
    eigen = motion.eigen_data()
    times = (2.0, 6.0)
    cfg = SimulationConfig(6.0, times, seed=SEED)
    replicas = run_replicas(motion, law, x0, cfg, _scaled(6_000, scale), threads)
    q10 = {}
    for i, t in enumerate(times):
        vals = [
            min_h_statistic(snaps[i], eigen)
            for snaps in replicas
            if not snaps[-1].truncated and snaps[-1].size > 0  # survival to t=6
        ]
        vals = [v for v in vals if math.isfinite(v)]
        q10[t] = float(np.quantile(vals, 0.10)) if vals else math.nan
    out.append(
        CriterionResult(
            "strong-supercriticality", "killed OU: q10(min h) no boundary collapse",
            q10[6.0] >= q10[2.0],
            f"q10 at t=2: {q10[2.0]:.4f}, at t=6: {q10[6.0]:.4f}",
        )
    )

    # transient OU from x0 = 5: the whole population stays positive up to t=6
    motion = TransientOU(0.5, 1.0)
    law = BranchingLaw(((2, 1.0),), 1.0)
    times = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    cfg = SimulationConfig(6.0, times, seed=SEED + 1)
    n = _scaled(2_000, scale)
    replicas = run_replicas(motion, law, 5.0, cfg, n, threads)
    stayed = sum(
        1
        for snaps in replicas
        if all(not s.truncated for s in snaps)
        and all(u > 0 for s in snaps for u in s.live_states)
    )
    frac = stayed / n
    out.append(
        CriterionResult(
            "strong-supercriticality", "transient OU: population stays in (0, inf)",
            frac >= 0.3,
            f"observed proportion {frac:.3f} over {n} replicas, need >= 0.3",
        )
    )
    return out


def criterion_9_determinism(scale=1.0, threads=1):
    """Byte-identical CSV for identical spec/seed across thread counts 1 and 8."""
    from .experiments import parse_spec, run_experiment

    doc = {
        "experiment": "martingale-curve",
        "motion": {"kind": "killed-ou", "lambda": 1.0},
        "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 2.0},
        "x0": 1.0,
        "snapshot_times": [0.5, 1.0, 2.0],
        "replicas": 400,
        "seed": SEED,
    }
    outputs = {}
    for t in (1, 8):
        spec = parse_spec({**doc, "threads": t})
        _, csv_text, _ = run_experiment(spec)
        outputs[t] = csv_text
    same = outputs[1] == outputs[8]
    return [
        CriterionResult(
            "determinism", "identical CSV across thread counts {1, 8}", same,
            "byte-identical" if same else "outputs differ",
        )
    ]


CRITERIA = (
    ("1 many-to-one", criterion_1_many_to_one),
    ("2 many-to-two", criterion_2_many_to_two),
    ("3 martingale mean-one", criterion_3_martingale_mean),
    ("4 Phi reproduction", criterion_4_phi),
    ("5 L2 phase boundary", criterion_5_l2_boundary),
    ("6 QSD fit", criterion_6_qsd),
    ("7 eta/sigma structure", criterion_7_eta_sigma),
    ("8 strong supercriticality", criterion_8_strong_supercriticality),
    ("9 determinism", criterion_9_determinism),
)


def run_battery(level="quick", threads=1, emit=print):
    if level not in ("quick", "full"):
        raise ConfigurationError(f"level must be 'quick' or 'full', got {level!r}")
    scale = 1.0 if level == "full" else 0.2
    all_passed = True
    with WorkerPool(threads) as pool:
        for label, fn in CRITERIA:
            for result in fn(scale=scale, threads=pool):
                emit(result.line())
                all_passed = all_passed and result.passed
    return 0 if all_passed else 1
