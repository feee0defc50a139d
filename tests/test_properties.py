"""Randomized property suites (hypothesis)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tricross import (
    DoubleDiagram,
    HalfLaurent,
    IntLaurent,
    Laurent2,
    TripleDiagram,
    alexander,
    convert_to_double,
    enumerate_projections,
    homfly,
    kauffman_bracket,
    kauffman_f,
    parse_spd,
    serialize_spd,
)
from tricross.enumeration import HEIGHT_WORDS

half_laurents = st.dictionaries(
    st.integers(-8, 8), st.integers(-9, 9), max_size=6
).map(HalfLaurent)

laurent2s = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(-9, 9), max_size=5,
).map(Laurent2)


RINGS = pytest.mark.parametrize("polys", [half_laurents, laurent2s],
                                ids=["HalfLaurent", "Laurent2"])


@RINGS
@given(data=st.data())
def test_ring_axioms(polys, data):
    a, b, c = (data.draw(polys) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == type(a)() and a * type(a).one() == a


@given(half_laurents, half_laurents)
def test_multiplication_matches_evaluation(a, b):
    s = Fraction(5, 3)  # evaluate in the half-power variable
    assert (a * b).eval_fraction(s) == a.eval_fraction(s) * b.eval_fraction(s)


@given(half_laurents)
def test_invert_t_is_ring_involution(a):
    assert a.invert_t().invert_t() == a


@given(half_laurents, half_laurents)
def test_invert_t_distributes(a, b):
    assert (a * b).invert_t() == a.invert_t() * b.invert_t()
    assert (a + b).invert_t() == a.invert_t() + b.invert_t()


@RINGS
@given(data=st.data())
def test_parse_str_roundtrip_random(polys, data):
    a = data.draw(polys)
    assert type(a).parse(str(a)) == a


@given(laurent2s, laurent2s)
def test_laurent2_mirror_is_multiplicative(a, b):
    assert (a * b).mirror() == a.mirror() * b.mirror()


# -- structural properties on enumerated objects ----------------------------

_PROJECTIONS = enumerate_projections(2) + enumerate_projections(3)


@given(st.integers(0, len(_PROJECTIONS) - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_spd_roundtrip_on_random_diagrams(idx, data):
    p = _PROJECTIONS[idx]
    words = [data.draw(st.sampled_from(HEIGHT_WORDS)) for _ in range(p.n)]
    d = TripleDiagram(p, words)
    assert parse_spd(serialize_spd(d)) == d


@given(st.integers(0, len(_PROJECTIONS) - 1))
@settings(deadline=None)
def test_euler_characteristic_on_enumerated_projections(idx):
    p = _PROJECTIONS[idx]
    assert p.n - 3 * p.n + len(p.faces()) == 2


@given(st.integers(0, len(_PROJECTIONS) - 1), st.data())
@settings(max_examples=25, deadline=None)
def test_alexander_symmetry_on_random_diagrams(idx, data):
    p = _PROJECTIONS[idx]
    words = [data.draw(st.sampled_from(HEIGHT_WORDS)) for _ in range(p.n)]
    dd = convert_to_double(TripleDiagram(p, words))
    if dd.n == 0:
        return
    a = alexander(dd)
    cs = a.int_coeffs()
    assert cs == {-e: c for e, c in cs.items()}
    assert sum(cs.values()) == 1


@given(st.integers(0, len(_PROJECTIONS) - 1), st.data())
@settings(max_examples=20, deadline=None)
def test_skein_polynomials_ignore_the_labelling(idx, data):
    """HOMFLY, F and the bracket do not change when the crossings of the
    double diagram are renumbered and some of them rotated by two slots
    (which keeps the under-strand on slots 0 and 2).  The bracket contracts
    the crossings in an order read from the labels, so this also runs it
    in many orders."""
    p = _PROJECTIONS[idx]
    words = [data.draw(st.sampled_from(HEIGHT_WORDS)) for _ in range(p.n)]
    dd = convert_to_double(TripleDiagram(p, words))
    perm = data.draw(st.permutations(range(dd.n)))
    turned = [data.draw(st.booleans()) for _ in range(dd.n)]

    def move(d):
        c, s = divmod(d, 4)
        return 4 * perm[c] + ((s + 2) % 4 if turned[c] else s)

    alpha = [0] * (4 * dd.n)
    for d, e in enumerate(dd.alpha):
        alpha[move(d)] = move(e)
    relabelled = DoubleDiagram(alpha, dd.n)
    assert homfly(relabelled) == homfly(dd)
    assert kauffman_f(relabelled) == kauffman_f(dd)
    assert kauffman_bracket(relabelled) == kauffman_bracket(dd)
