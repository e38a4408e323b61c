"""The benchmark's workloads: `branchsim simulate` specs generated from a seed.

Each workload is a spec document plus the thread count passed on the command
line. The workload seed only chooses the spec's `seed` field, so the program
sees nothing but the generated spec. Run k of a benchmark invocation uses its
own spec seed, derived from (workload, seed, k).
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

BINARY_PMF = [[0, 0.2], [2, 0.8]]  # m1 = 1.6, m2 = 3.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict
    threads: int
    quick: dict = field(default_factory=dict)  # small size for --quick and warm-ups

    def spec(self, seed: int, run: int, quick: bool = False) -> dict:
        doc = copy.deepcopy(self.doc)
        if quick:
            doc.update(self.quick)
        doc["seed"] = derive_seed(self.name, seed, run)
        return doc

    def size(self) -> dict:
        return {k: self.doc[k] for k in ("replicas", "spine_paths") if k in self.doc}


def derive_seed(name: str, seed: int, run: int) -> int:
    digest = hashlib.sha256(f"{name}/{seed}/{run}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="engine-ou",
            why=(
                "martingale-curve on killed OU with about 455 live particles per "
                "replica at t=6: the scalar engine heap loop does over 95% of the work"
            ),
            doc={
                "experiment": "martingale-curve",
                "motion": {"kind": "killed-ou", "lambda": 1.0},
                "branching": {"pmf": BINARY_PMF, "rate": 2.0 / 0.6},  # r(m1-1) = 2
                "x0": 1.0,
                "snapshot_times": [2.0, 4.0, 6.0],
                # the built-in "mean D_t = 1 within 4 SE" checks fail on about 1
                # run in 200 at 150 replicas and 1 in 3000 at 1200
                "replicas": 1200,
            },
            threads=1,
            quick={"replicas": 8},
        ),
        Workload(
            name="spine-m2",
            why=(
                "many-to-two-check with 8000 small engine replicas and 9 x 150k "
                "two-spine paths: the scalar spine loop does about 95% of the work"
            ),
            doc={
                "experiment": "many-to-two-check",
                "motion": {"kind": "killed-ou", "lambda": 1.0},
                "branching": {"pmf": BINARY_PMF, "rate": 2.0},
                "x0": 1.0,
                "snapshot_times": [0.5, 1.0, 2.0],
                # the built-in 4-SE engine-vs-spine checks compare two heavy-tailed
                # means; at 40 replicas and 30k paths about 1 run in 10 fails
                "replicas": 8000,
                "spine_paths": 150_000,
            },
            threads=1,
            quick={"replicas": 4, "spine_paths": 500},
        ),
        Workload(
            name="pool-gw",
            why=(
                "eta-sigma on a Galton-Watson motion at 2 threads: many tiny "
                "replicas through two process pools, fixedpoint and phi_quadrature"
            ),
            doc={
                "experiment": "eta-sigma",
                "motion": {"kind": "galton-watson", "rho": [[-1, 0.6], [1, 0.4]]},
                "branching": {"pmf": BINARY_PMF, "rate": 1.0},
                "x0": 1,
                "snapshot_times": [1.0, 2.0, 4.0],
                # sigma is estimated at the horizon and eta at the last snapshot.
                # At horizon 4 both estimate P(extinct by 4), and the built-in
                # one-sided 2-SE check "sigma >= eta" then fails on about 1% of
                # seeds; horizon 6 makes it test a true inequality with margin.
                "horizon": 6.0,
                "replicas": 10_000,
            },
            threads=2,
            quick={"replicas": 200},
        ),
    )
}


def killed_ou_mean_population(spec: dict, t: float) -> float:
    """Exact E[live particles at t] for a killed-OU workload:
    e^{r(m1-1)t} P_x(X_t > 0) = e^{r(m1-1)t} erf(x0 / sqrt(2 tau(t)))."""
    lam = spec["motion"]["lambda"]
    m1 = sum(k * p for k, p in spec["branching"]["pmf"])
    growth = spec["branching"]["rate"] * (m1 - 1.0)
    tau = math.expm1(2.0 * lam * t) / (2.0 * lam)
    return math.exp(growth * t) * math.erf(spec["x0"] / math.sqrt(2.0 * tau))
