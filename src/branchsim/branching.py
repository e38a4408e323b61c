"""Offspring law of the branching dynamics.

Particles branch at a constant rate r, dying and being replaced at their
current position by m i.i.d. offspring. We require m1 = E[m] > 1 and
m2 = E[m^2] finite, and against a motion with eigenvalue parameter lam
the supercriticality condition r*(m1 - 1) > lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .parallel import Streams

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class BranchingLaw:
    """Finite offspring pmf plus the branching rate r."""

    offspring_pmf: tuple  # ((k, prob), ...)
    rate_r: float
    m1: float = field(init=False)
    m2: float = field(init=False)

    def __init__(self, offspring_pmf, rate_r):
        pmf = tuple((int(k), float(p)) for k, p in offspring_pmf)
        problems = []
        ks = [k for k, _ in pmf]
        if len(set(ks)) != len(ks):
            problems.append("offspring counts must be distinct")
        if any(k < 0 for k in ks):
            problems.append("offspring counts must be >= 0")
        if any(p < 0 for _, p in pmf):
            problems.append("offspring probabilities must be >= 0")
        total = sum(p for _, p in pmf)
        if abs(total - 1.0) > _PROB_TOL:
            problems.append(f"offspring probabilities sum to {total}, not 1")
        if not rate_r > 0:
            problems.append(f"branching rate must be > 0, got {rate_r}")
        m1 = sum(k * p for k, p in pmf)
        m2 = sum(k * k * p for k, p in pmf)
        if not m1 > 1:
            problems.append(f"mean offspring m1 = {m1} must exceed 1")
        if problems:
            raise ConfigurationError(*problems)
        object.__setattr__(self, "offspring_pmf", pmf)
        object.__setattr__(self, "rate_r", float(rate_r))
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "_ks", np.array(ks, dtype=np.int64))
        object.__setattr__(self, "_cum", np.cumsum([p for _, p in pmf]))

    @property
    def var_m(self) -> float:
        return self.m2 - self.m1**2

    @property
    def growth_rate(self) -> float:
        """Malthusian exponent r*(m1 - 1) of the mean population size."""
        return self.rate_r * (self.m1 - 1.0)

    def validate_against(self, lam: float) -> None:
        """Check the supercriticality condition r*(m1-1) > lam for a motion."""
        if lam is None:
            raise ConfigurationError(
                "motion has no known eigenvalue; cannot check supercriticality"
            )
        if not self.growth_rate > lam:
            raise ConfigurationError(
                f"r*(m1-1) = {self.growth_rate} must exceed the motion eigenvalue {lam}"
            )

    def sample_offspring(self, rng: np.random.Generator) -> int:
        u = rng.random()
        return int(self._ks[np.searchsorted(self._cum, u, side="right")])

    def sample_offspring_many(self, n: int, rng) -> np.ndarray:
        """n offspring counts; rng is a Generator or Streams over n particles."""
        u = Streams.of(rng, n).random()
        return self._ks[np.searchsorted(self._cum, u, side="right")]

    def pgf(self, s):
        """Offspring probability generating function f(s) = sum p_k s^k."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for k, p in self.offspring_pmf:
            out = out + p * s**k
        return out if out.ndim else float(out)


def binary_law(p_zero: float, rate_r: float) -> BranchingLaw:
    """Convenience: offspring in {0, 2} with P(m=0) = p_zero."""
    return BranchingLaw(((0, p_zero), (2, 1.0 - p_zero)), rate_r)
