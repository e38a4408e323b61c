"""Test sets: the measurable sets whose particle counts the estimators track.

Each set answers membership twice: ``contains`` for one public state, and
``contains_many`` for an array of a motion's float64 codes (NaN, absorbed,
is never a member), which is what the engine and the spine samplers hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .states import is_absorbed


def _contains_each(test_set, values, motion) -> np.ndarray:
    """Array membership through decode and the per-state contains."""
    return np.array([test_set.contains(s) for s in motion.decode(values)], dtype=bool)


@dataclass(frozen=True)
class Interval:
    """Open interval (a, b) on the real line. b may be +inf."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigurationError(f"interval requires a < b, got ({self.a}, {self.b})")

    def contains(self, state) -> bool:
        if is_absorbed(state) or not isinstance(state, (int, float)):
            return False
        return self.a < state < self.b

    def contains_many(self, values, motion) -> np.ndarray:
        if not motion.codes_are_values:
            return _contains_each(self, values, motion)
        values = np.asarray(values, dtype=float)
        return (values > self.a) & (values < self.b)  # NaN compares false

    @property
    def bounded(self) -> bool:
        import math

        return math.isfinite(self.a) and math.isfinite(self.b)


@dataclass(frozen=True)
class FiniteSet:
    """Explicit finite collection of discrete states."""

    members: tuple

    def __init__(self, members):
        object.__setattr__(self, "members", tuple(members))

    def contains(self, state) -> bool:
        if is_absorbed(state):
            return False
        return state in self.members

    def contains_many(self, values, motion) -> np.ndarray:
        codes = [motion.encode(m) for m in self.members if not is_absorbed(m)]
        return np.isin(values, codes)  # NaN is never equal to a code

    @property
    def bounded(self) -> bool:
        return True


@dataclass(frozen=True)
class Predicate:
    """Membership oracle, with an optional externally supplied nu-mass.

    The callable must be a module-level function if the set is used across
    process boundaries.
    """

    membership: Callable
    nu_mass_override: Optional[float] = None
    bounded: bool = field(default=True)

    def contains(self, state) -> bool:
        if is_absorbed(state):
            return False
        return bool(self.membership(state))

    def contains_many(self, values, motion) -> np.ndarray:
        return _contains_each(self, values, motion)


TestSet = object  # Interval | FiniteSet | Predicate


def count_in(states, test_set) -> int:
    """Number of states in an iterable that belong to the test set."""
    return sum(1 for s in states if test_set.contains(s))
