import random
from math import comb

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    IntLaurent,
    TripleDiagram,
    alexander,
    convert_to_double,
    homfly,
    parse_spd,
    rational_knot_pd,
)
from tricross.alexander import _balanced_digits
from tricross.enumeration import HEIGHT_WORDS
from tricross.laurent import HalfLaurent, Laurent2
from conftest import (
    PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2, W_41_41_SPLIT, W_51_SPLIT, W_SQUARE)

D_TREFOIL = IntLaurent.from_int_coeffs({-1: 1, 0: -1, 1: 1})
D_FIG8 = IntLaurent.from_int_coeffs({-1: -1, 0: 3, 1: -1})


def test_known_values():
    assert alexander(DoubleDiagram.from_pd(PD_TREFOIL)) == D_TREFOIL
    assert alexander(DoubleDiagram.from_pd(PD_FIG8)) == D_FIG8
    assert alexander(DoubleDiagram.from_pd(PD_KINK)) == IntLaurent.from_int_coeffs({0: 1})


def test_fixture_diagrams_via_conversion():
    assert alexander(convert_to_double(parse_spd(T2_1))) == D_TREFOIL
    assert alexander(convert_to_double(parse_spd(T2_2))) == D_FIG8


@pytest.mark.parametrize("twists,det", [
    ((3,), 3), ((2, 2), 5), ((5,), 5), ((3, 2), 7),
    ((4, 2), 9), ((2, 1, 1, 2), 13), ((2, 2, 2, 2), 29),
])
def test_rational_knot_determinants(twists, det):
    a = alexander(DoubleDiagram.from_pd(rational_knot_pd(twists)))
    value = sum(c * (-1) ** abs(e) for e, c in a.int_coeffs().items())
    assert abs(value) == det


def test_symmetry_and_normalization_enforced():
    # every produced polynomial is its own t -> 1/t image and is 1 at t = 1
    for pd in (PD_TREFOIL, PD_FIG8, rational_knot_pd((3, 1, 2))):
        a = alexander(DoubleDiagram.from_pd(pd))
        cs = a.int_coeffs()
        assert cs == {-e: c for e, c in cs.items()}
        assert sum(cs.values()) == 1


@pytest.mark.parametrize("size", [1, 3, 11])
def test_balanced_digits_round_trip_at_the_coefficient_bound(size):
    # coefficients of det M(t) lie in [-4^size, 4^size]; both ends and
    # negative digits must decode exactly at B = 2 * 4^size + 1
    bound = 4 ** size
    base = 2 * bound + 1
    rng = random.Random(size)
    for _ in range(50):
        coeffs = [rng.choice((-bound, bound, rng.randint(-bound, bound), 0))
                  for _ in range(size + 1)]
        value = sum(c * base ** e for e, c in enumerate(coeffs))
        assert _balanced_digits(value, base) == {e: c for e, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (5, 6), (4, 4), (10, 15)])
def test_genus_one_rational_knots(a, b):
    # C(2a, 2b): Delta = -ab t^-1 + (2ab + 1) - ab t, large negative outer terms
    dd = DoubleDiagram.from_pd(rational_knot_pd((2 * a, 2 * b)))
    assert alexander(dd) == IntLaurent.from_int_coeffs(
        {-1: -a * b, 0: 2 * a * b + 1, 1: -a * b})


@pytest.mark.parametrize("k", [1, 4, 12])
def test_two_bridge_torus_knots(k):
    # T(2, 2k + 1): Delta = t^-k - t^(1-k) + ... + t^k
    dd = DoubleDiagram.from_pd(rational_knot_pd((2 * k + 1,)))
    assert alexander(dd) == IntLaurent.from_int_coeffs(
        {e: (-1) ** (e + k) for e in range(-k, k + 1)})


def _homfly_at_alexander_point(p) -> HalfLaurent:
    """P(a, z) at a = 1, z = t^(1/2) - t^(-1/2), in half-exponents of t."""
    out = {}
    for (_, ez), c in p.coeffs.items():
        for j in range(ez + 1):
            e = ez - 2 * j
            out[e] = out.get(e, 0) + c * (-1) ** j * comb(ez, j)
    return HalfLaurent({e: v for e, v in out.items() if v})


def test_alexander_equals_homfly_specialisation_on_sample(projections_n3):
    rng = random.Random(20211)
    projections = [p for n in (2, 3) for p in projections_n3[n]] + [
        parse_spd(w).projection for w in (W_SQUARE, W_51_SPLIT, W_41_41_SPLIT)]
    knotted = 0
    while knotted < 20:  # random heights mostly give unknots; skip those
        p = rng.choice(projections)
        dd = convert_to_double(
            TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(p.n)]))
        h = homfly(dd)
        if h != Laurent2.one():
            knotted += 1
            assert alexander(dd) == _homfly_at_alexander_point(h)
