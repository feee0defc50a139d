import itertools
import random
from math import comb, prod

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    IntLaurent,
    TripleDiagram,
    alexander,
    bracket_jones,
    convert_to_double,
    homfly,
    parse_spd,
    rational_knot_pd,
)
from tricross.alexander import _balanced_digits, _int_det, _normalize, _wirtinger
from tricross.canon import canonical_diagram_code
from tricross.enumeration import HEIGHT_WORDS, enumerate_projections, enumerate_raw_shadows
from tricross.laurent import HalfLaurent, Laurent2
from tricross.quotients import hom_counts, permutation_group
from conftest import (
    PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2, W_41_41_SPLIT, W_51_SPLIT, W_SQUARE)
from test_acceptance import N5_TOKEN_BEFORE_FIRST_PRIME
from test_canon import relabel

D_TREFOIL = IntLaurent.from_int_coeffs({-1: 1, 0: -1, 1: 1})
D_FIG8 = IntLaurent.from_int_coeffs({-1: -1, 0: 3, 1: -1})


def test_known_values():
    assert alexander(DoubleDiagram.from_pd(PD_TREFOIL)) == D_TREFOIL
    assert alexander(DoubleDiagram.from_pd(PD_FIG8)) == D_FIG8
    assert alexander(DoubleDiagram.from_pd(PD_KINK)) == IntLaurent.from_int_coeffs({0: 1})


@pytest.mark.parametrize("knot_invariant", [
    alexander, bracket_jones,
    pytest.param(lambda dd: hom_counts(dd, permutation_group("S3")), id="hom_counts")])
def test_knot_invariants_refuse_the_hopf_link(knot_invariant):
    with pytest.raises(DiagramError):
        knot_invariant(DoubleDiagram.from_pd(rational_knot_pd((2,))))


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
    # a size x size minor whose rows merge L_1 .. L_size relations: det M(t)
    # has degree at most sum L and coefficients in [-prod(2 L + 2),
    # prod(2 L + 2)]; both ends and negative digits must decode exactly at
    # B = 2 * prod(2 L + 2) + 1
    rng = random.Random(size)
    for _ in range(50):
        lengths = [rng.randint(1, 6) for _ in range(size)]
        bound = prod(2 * length + 2 for length in lengths)
        base = 2 * bound + 1
        coeffs = [rng.choice((-bound, bound, rng.randint(-bound, bound), 0))
                  for _ in range(sum(lengths) + 1)]
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


# -- the Wirtinger rows as first written, kept as a reference ---------------


def _reference_arcs(dd, tails):
    """Arc index of every tail dart along the knot traversal."""
    (order,) = dd.walks(tails)
    arc_of = {}
    arc = 0
    for d in order:
        if d % 4 in (0, 2):  # exiting on the under-strand: new arc starts here
            arc += 1
        arc_of[d] = arc
    # the first few darts (before the first under-exit) belong to the last arc
    total = arc
    for d in order:
        if d % 4 in (0, 2):
            break
        arc_of[d] = total
    return {d: a % total for d, a in arc_of.items()} if total else {}


def _reference_wirtinger(dd, tails):
    arc_of = _reference_arcs(dd, tails)
    rows = []
    for c in range(dd.n):
        u_out = 4 * c + (0 if 4 * c + 0 in tails else 2)
        o_out = 4 * c + (1 if 4 * c + 1 in tails else 3)
        u_in_far = dd.alpha[4 * c + (u_out % 4 + 2) % 4]
        rows.append((arc_of[u_out], arc_of[u_in_far], arc_of[o_out],
                     dd.crossing_sign(c, tails)))
    return rows


def _reference_alexander(dd):
    """Rows over Z[t] as (c0, c1) pairs, read into the matrix at t = B."""
    m = dd.n
    if m == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    tails = dd.orientations()[0]
    rows = []
    for out_arc, in_arc, over_arc, sign in _reference_wirtinger(dd, tails):
        row = {}

        def add(col, c0, c1):
            a0, a1 = row.get(col, (0, 0))
            row[col] = (a0 + c0, a1 + c1)

        if sign > 0:
            add(over_arc, 1, -1)
            add(in_arc, 0, 1)
            add(out_arc, -1, 0)
        else:
            add(over_arc, -1, 1)
            add(in_arc, 1, 0)
            add(out_arc, 0, -1)
        rows.append(row)
    size = m - 1
    if size == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    base = 2 * 4 ** size + 1
    mat = [[rows[i].get(j, (0, 0))[0] + rows[i].get(j, (0, 0))[1] * base
            for j in range(size)] for i in range(size)]
    return _normalize(_balanced_digits(_int_det(mat), base))


def _agrees_with_reference(d):
    """Alexander off the triple diagram and off its deconstruction both
    equal the reference on the deconstruction; returns it."""
    dd = convert_to_double(d)
    for tails in dd.orientations():
        # the reference's rows as passages: passage k from arc k to arc k + 1
        passes = [None] * dd.n
        for out_arc, in_arc, over_arc, sign in _reference_wirtinger(dd, tails):
            assert out_arc == (in_arc + 1) % dd.n
            passes[in_arc] = (over_arc, sign)
        assert _wirtinger(dd, tails) == passes
    ref = _reference_alexander(dd)
    for a in (alexander(d), alexander(dd)):
        assert (a, str(a), repr(a)) == (ref, str(ref), repr(ref))
    return ref


def test_alexander_matches_the_reference_on_every_diagram_up_to_three(projections_n3):
    projections = enumerate_projections(1) + projections_n3[2] + projections_n3[3]
    seen = set()
    for p in projections:
        for word in itertools.product(HEIGHT_WORDS, repeat=p.n):
            d = TripleDiagram(p, word)
            code = canonical_diagram_code(d)
            if code not in seen:
                seen.add(code)
                _agrees_with_reference(d)
    assert len(seen) == 2 + 21 + 330


def test_alexander_matches_the_reference_on_seeded_words_at_four():
    rng = random.Random(17)
    for p in enumerate_projections(4):
        for _ in range(12):
            _agrees_with_reference(TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)]))


def test_alexander_matches_the_reference_on_seeded_words_at_five():
    # the full n = 5 search takes minutes: seeded prime shadows among the
    # first 300 it yields from a resume token, and seeded words on each
    shadows = [p for p in itertools.islice(
        enumerate_raw_shadows(5, resume_token=N5_TOKEN_BEFORE_FIRST_PRIME), 300)
        if p.is_prime()]
    rng = random.Random(5)
    polys = set()
    for p in rng.sample(shadows, 8):
        for _ in range(25):
            polys.add(str(_agrees_with_reference(
                TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(5)]))))
    assert len(polys) > 10


def test_alexander_matches_the_reference_under_relabelling(projections_n3):
    # renamed crossings, rotated slots and reflections; an odd rotation or
    # a reflection swaps the slots a strand enters and leaves by, and so
    # flips the strand directions the triple route reads its signs from
    rng = random.Random(29)
    projections = projections_n3[2] + projections_n3[3] + enumerate_projections(4)
    odd = 0
    for _ in range(200):
        p = rng.choice(projections)
        words = [rng.choice(HEIGHT_WORDS) for _ in range(p.n)]
        rots = [rng.randrange(6) for _ in range(p.n)]
        reflect = rng.random() < 0.5
        odd += reflect or any(r % 2 for r in rots)
        q = relabel(p, rng.sample(range(p.n), p.n), rots, reflect, words)
        assert _agrees_with_reference(q) == alexander(TripleDiagram(p, words))
    assert odd > 150
