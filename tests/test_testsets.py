import math

import numpy as np
import pytest

from branchsim import (
    ABSORBED,
    ConfigurationError,
    ContactProcessModT,
    ErgodicCTMC,
    FiniteSet,
    GaltonWatson,
    Interval,
    KilledOU,
    Predicate,
    TransientOU,
    binary_law,
    canonicalize,
    count_in,
    many_to_one,
    many_to_two,
)
from branchsim.spine import _evaluate


def test_interval_membership_is_open():
    B = Interval(1.0, 2.0)
    assert B.contains(1.5)
    assert not B.contains(1.0) and not B.contains(2.0)
    assert not B.contains(ABSORBED)
    assert B.bounded
    assert not Interval(0.0, math.inf).bounded


def test_interval_requires_order():
    with pytest.raises(ConfigurationError):
        Interval(2.0, 2.0)


def test_finite_set():
    B = FiniteSet((1, 3))
    assert B.contains(3) and not B.contains(2)
    assert not B.contains(ABSORBED)
    assert B.bounded


def test_predicate_never_matches_absorbed():
    B = Predicate(lambda s: True, nu_mass_override=0.5)
    assert B.contains(123)
    assert not B.contains(ABSORBED)
    assert B.nu_mass_override == 0.5


def test_count_in():
    states = (0.5, 1.5, 1.7, ABSORBED, 3.0)
    assert count_in(states, Interval(1.0, 2.0)) == 2


def _contact_codes():
    m = ContactProcessModT(1, 0.5)
    configs = [frozenset({(0,)}), frozenset({(0,), (1,)}), frozenset({(0,), (2,)})]
    return m, np.array([m.encode(c) for c in configs] + [math.nan])


def _is_small(state):
    return len(state) <= 1


@pytest.mark.parametrize(
    "motion, values, test_sets",
    [
        (
            TransientOU(0.5),
            np.array([-math.inf, -2.0, 1.0, 1.5, 2.0, 2.5, math.inf, math.nan]),
            [Interval(1.0, 2.0), Interval(-math.inf, 2.0), Interval(1.0, math.inf),
             FiniteSet((1.0, 2)), Predicate(lambda s: s > 0)],
        ),
        (
            GaltonWatson(((-1, 0.6), (1, 0.4))),
            np.array([1.0, 2.0, 3.0, 7.0, math.nan]),
            [Interval(0.5, math.inf), Interval(1.0, 3.0), FiniteSet((1, 3)), FiniteSet(()),
             Predicate(lambda s: s % 2 == 0)],
        ),
        (
            ErgodicCTMC.default_example(),
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            [FiniteSet((0,)), FiniteSet((1, 2)), Interval(0.5, 3.0)],
        ),
        (
            *_contact_codes(),
            [FiniteSet((frozenset({(0,), (2,)}),)), FiniteSet((1,)), Interval(0.0, math.inf),
             Predicate(_is_small)],
        ),
    ],
    ids=["transient-ou", "galton-watson", "ergodic-ctmc", "contact-mod-t"],
)
def test_array_membership_matches_contains(motion, values, test_sets):
    states = motion.decode(values)
    assert any(s is ABSORBED for s in states) == bool(np.isnan(values).any())
    for B in test_sets:
        expected = [B.contains(s) for s in states]
        got = B.contains_many(values, motion)
        assert got.dtype == bool and got.tolist() == expected, B


def test_array_membership_drives_the_spine_estimators_bit_identically():
    # a test set is evaluated on codes; Predicate(B.contains) decodes and asks
    # contains state by state, on the same draws
    law = binary_law(0.2, 2.0)
    cases = [
        (KilledOU(1.0), 1.0, Interval(0.5, 2.0)),
        (GaltonWatson(((-1, 0.6), (1, 0.4))), 2, FiniteSet((1, 3))),
        (ContactProcessModT(1, 0.3), canonicalize(frozenset({(0,)})),
         FiniteSet((frozenset({(0,), (1,)}),))),
    ]
    for motion, x0, B in cases:
        per_state = Predicate(B.contains)
        one = [many_to_one(motion, law, x0, [f], 1.0, n_paths=4000, seed=3)[0]
               for f in (B, per_state)]
        two = [many_to_two(motion, law, x0, [(f, f)], 1.0, n_paths=4000, seed=3)[0]
               for f in (B, per_state)]
        assert one[0] == one[1] and one[0].value > 0
        assert two[0] == two[1] and two[0].value > 0


@pytest.mark.parametrize(
    "motion, values, B",
    [
        (KilledOU(1.0), np.array([0.7, np.nan, 1.5, 3.0, 0.9, 1.1]), Interval(0.5, 2.0)),
        (GaltonWatson(((-1, 0.6), (1, 0.4))), np.array([1.0, 3.0, np.nan, 2.0, 3.0, 1.0]),
         FiniteSet((1, 3))),
    ],
    ids=["interval", "finite-set"],
)
def test_whole_array_membership_equals_the_masked_evaluation(motion, values, B):
    # members where the mask is off must still read 0
    where = np.array([True, False, False, True, True, False])
    expected = np.zeros(len(values))
    expected[where] = [float(B.contains(s)) for s in motion.decode(values[where])]
    got = _evaluate(motion, B, values, where)
    assert got.dtype == np.float64 and np.array_equal(got, expected)
    assert np.array_equal(_evaluate(motion, Predicate(B.contains), values, where), expected)
