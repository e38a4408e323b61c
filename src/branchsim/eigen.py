"""Eigendata of a motion: the triple (lambda, h, nu) plus the scaling function p.

-lambda is an eigenvalue of the motion's generator with right eigenfunction h
(vanishing exactly on the absorbing set) and left eigenmeasure nu. The
normalized process h(X_t) e^{lambda t} / h(x0) is a mean-one martingale.
For the contact process neither h nor nu is known in closed form; there we
expose the surrogate h(config) = |config| (number of infected sites), which
is equivalent to the true h up to multiplicative constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .states import is_absorbed
from .testsets import Predicate


@dataclass(frozen=True)
class EigenData:
    """Evaluator view over a motion's (lambda, h, nu, p)."""

    motion: object
    lam: Optional[float]
    surrogate: bool = False

    def h(self, state) -> float:
        if is_absorbed(state):
            return 0.0
        return self.motion._h(state)

    def h_many(self, values: np.ndarray) -> np.ndarray:
        """h at an array of the motion's state codes, as a float array; an
        absorbed (NaN) code gives 0."""
        return self.motion._h_many(values)

    def nu_mass(self, test_set) -> float:
        """nu-measure of a test set; raises when nu has no closed form."""
        if isinstance(test_set, Predicate) and test_set.nu_mass_override is not None:
            return test_set.nu_mass_override
        return self.motion._nu_mass(test_set)

    def nu_density(self, state) -> Optional[float]:
        return self.motion._nu_density(state)

    def p(self, t: float) -> float:
        return self.motion._p(t)

    def m2_martingale(self, x0, t: float) -> float:
        """E_x[M_t^2] for the mean-one martingale M; used by the Phi integral."""
        return self.motion._m2_martingale(x0, t)


def martingale_weight(eigen: EigenData, x0, xt, t: float) -> float:
    """h(xt) e^{lambda t} / h(x0); zero when xt is absorbed."""
    if eigen.lam is None:
        raise ConfigurationError("motion eigenvalue is not available")
    h0 = eigen.h(x0)
    if h0 <= 0.0:
        raise ConfigurationError(f"h(x0) must be positive, got {h0} at x0={x0!r}")
    if is_absorbed(xt):
        return 0.0
    return eigen.h(xt) * math.exp(eigen.lam * t) / h0
