"""State space primitives.

A particle state is one of:

* a ``float`` -- position of a diffusion (strictly positive for killed
  diffusions, any real for the transient OU),
* an ``int`` >= 1 -- population count of the Galton-Watson motion,
* a ``frozenset`` of integer tuples -- canonical (translation-minimal)
  configuration of the contact process modulo translations,
* the singleton ``ABSORBED`` -- the trap state shared by all motions.

Absorption is always represented by ``ABSORBED``: a killed diffusion at 0,
a Galton-Watson chain at 0 and the empty lattice configuration are never
materialized as ordinary states.
"""

from __future__ import annotations


class Absorbed:
    """Singleton marker for the absorbing trap state."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSORBED"

    def __reduce__(self):
        # keep singleton identity across pickling (process pools)
        return (Absorbed, ())


ABSORBED = Absorbed()

State = object  # float | int | frozenset | Absorbed


def is_absorbed(state) -> bool:
    return isinstance(state, Absorbed)


def canonicalize(config):
    """Translation-minimal representative of a finite subset of Z^d.

    Shifts the configuration so the coordinate-wise minimum is the origin.
    Empty input maps to ``ABSORBED``. Idempotent.
    """
    if is_absorbed(config):
        return ABSORBED
    sites = list(config)
    if not sites:
        return ABSORBED
    d = len(sites[0])
    mins = tuple(min(s[i] for s in sites) for i in range(d))
    return frozenset(tuple(c - m for c, m in zip(s, mins)) for s in sites)
