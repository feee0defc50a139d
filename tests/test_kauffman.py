import random
from math import comb

import pytest

from tricross import (
    DoubleDiagram,
    HalfLaurent,
    TripleDiagram,
    alexander,
    bracket_jones,
    convert_to_double,
    fold_jones,
    fold_kauffman,
    homfly,
    kauffman_f,
    kauffman_lambda,
    parse_spd,
    rational_knot_pd,
)
from tricross.enumeration import HEIGHT_WORDS
from tricross.kauffman import DELTA_K
from tricross.laurent import Laurent2
from tricross.maps import d_sigma
from tricross.skein import reduce
from conftest import (
    PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2, W_41_41, W_41_41_SPLIT, W_51_SPLIT)


def kauffman_to_jones(f: Laurent2) -> HalfLaurent:
    """Specialize F(a, z) at a = -t^(-3/4), z = t^(1/4) + t^(-1/4)."""
    out = {}
    for (ea, ez), c in f.coeffs.items():
        for k in range(ez + 1):
            e = -3 * ea + (ez - 2 * k)          # quarter-exponents of t
            sign = 1 if ea % 2 == 0 else -1
            out[e] = out.get(e, 0) + c * sign * comb(ez, k)
    assert all(e % 2 == 0 for e, c in out.items() if c)
    return HalfLaurent({e // 2: c for e, c in out.items() if c})


def test_unknot_and_kink_normalization():
    assert kauffman_f(DoubleDiagram.unknot()) == Laurent2.one()
    assert kauffman_lambda(DoubleDiagram.from_pd(PD_KINK)) in (
        Laurent2({(1, 0): 1}), Laurent2({(-1, 0): 1}))
    assert kauffman_f(DoubleDiagram.from_pd(PD_KINK)) == Laurent2.one()


def test_delta_constant():
    assert DELTA_K == Laurent2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})


def test_jones_specialization():
    for pd in (PD_TREFOIL, rational_knot_pd((2, 2)), rational_knot_pd((3, 2)),
               rational_knot_pd((4, 2))):
        dd = DoubleDiagram.from_pd(pd)
        assert kauffman_to_jones(kauffman_f(dd)) == bracket_jones(dd)


def test_jones_specialization_on_triple_fixtures():
    for text in (T2_1, T2_2):
        dd = convert_to_double(parse_spd(text))
        assert kauffman_to_jones(kauffman_f(dd)) == bracket_jones(dd)


def test_mirror_symmetry_of_fig8():
    f = kauffman_f(DoubleDiagram.from_pd(rational_knot_pd((2, 2))))
    assert f == Laurent2({(-ea, ez): c for (ea, ez), c in f.coeffs.items()})


def test_mirror_is_a_inversion():
    dd = DoubleDiagram.from_pd(PD_TREFOIL)
    mirrored = DoubleDiagram.from_pd([[c[1], c[2], c[3], c[0]] for c in PD_TREFOIL])
    f = kauffman_f(dd)
    assert kauffman_f(mirrored) == f.invert_a() != f
    assert fold_kauffman(f) == fold_kauffman(f.invert_a())


def _folded_invariants(dd):
    h = homfly(dd)
    return (fold_jones(bracket_jones(dd)), str(alexander(dd)),
            min(str(h), str(h.mirror())), fold_kauffman(kauffman_f(dd)))


def _assert_only_f_differs(split_spd, partner):
    *rest, f = _folded_invariants(convert_to_double(parse_spd(split_spd)))
    *rest_partner, f_partner = _folded_invariants(partner)
    assert rest == rest_partner   # Jones, Alexander and HOMFLY agree
    assert f != f_partner


def test_kauffman_splits_the_5_1_key():
    _assert_only_f_differs(
        W_51_SPLIT, DoubleDiagram.from_pd(rational_knot_pd((5,))))


def test_kauffman_splits_the_41_41_key():
    _assert_only_f_differs(W_41_41_SPLIT, convert_to_double(parse_spd(W_41_41)))


# -- the Reidemeister I / II reduction of every skein state --------------------

NO_TAILS = NO_FLIPS = frozenset()


def test_reduce_keeps_kink_free_alternating_diagrams():
    # the trefoil, the figure-eight and the Hopf link's clasp: no kink, and
    # every bigon alternates
    for pd in (PD_TREFOIL, PD_FIG8, rational_knot_pd((2,))):
        dd = DoubleDiagram.from_pd(pd)
        assert reduce(dd, NO_TAILS, NO_FLIPS) == (dd, NO_TAILS, NO_FLIPS, 0, 0)


def test_reduce_removes_a_kink_by_its_sign():
    dd = DoubleDiagram.from_pd(PD_KINK)
    reduced, _, _, kinks, loops = reduce(dd, NO_TAILS, NO_FLIPS)
    assert (reduced.n, loops) == (0, 1)
    assert kinks == dd.writhe(dd.orientations()[0]) in (1, -1)
    assert reduce(dd, NO_TAILS, frozenset({0}))[3] == -kinks


def test_reduce_reads_flips_in_the_same_level_test():
    # switching one crossing of the Hopf clasp makes both bigons same-level:
    # the two components come apart as two circles
    dd = DoubleDiagram.from_pd(rational_knot_pd((2,)))
    reduced, _, _, kinks, loops = reduce(dd, NO_TAILS, frozenset({1}))
    assert (reduced.n, kinks, loops) == (0, 0, 2)


def _pair(alpha, u, v):
    alpha[u] = v
    alpha[v] = u


def _curl(dd, x, sign):
    """``dd`` with a kink on the edge at dart ``x``: a new crossing whose
    adjacent slots k and k + 1 are joined (slot k + 1 is the kink's under-
    strand entry for ``sign`` +1)."""
    b, k = 4 * dd.n, 3 if sign > 0 else 0
    alpha = list(dd.alpha) + [0] * 4
    y = dd.alpha[x]
    _pair(alpha, b + k, b + (k + 1) % 4)
    _pair(alpha, x, b + (k + 2) % 4)
    _pair(alpha, y, b + (k + 3) % 4)
    return DoubleDiagram(alpha, dd.n + 1)


def _bigon(dd, x, x2, s, t):
    """``dd`` with the edge at dart ``x2`` pushed across the edge at ``x``
    (both bound the face that follows ``x``): new crossings p and q, the
    strand of ``x`` on slots ``s`` and ``t`` (mod 2 its level) at p and q."""
    p, q = 4 * dd.n, 4 * dd.n + 4
    alpha = list(dd.alpha) + [0] * 8
    y, y2 = dd.alpha[x], dd.alpha[x2]
    _pair(alpha, x, p + s)
    _pair(alpha, p + (s + 2) % 4, q + t)
    _pair(alpha, q + (t + 2) % 4, y)
    _pair(alpha, y2, p + (s + 1) % 4)
    _pair(alpha, p + (s + 3) % 4, q + (t + 3) % 4)
    _pair(alpha, q + (t + 1) % 4, x2)
    return DoubleDiagram(alpha, dd.n + 2)


def _writhe(dd):
    return dd.writhe(dd.orientations()[0])


@pytest.mark.parametrize("seed", range(12))
def test_kinks_and_same_level_bigons_on_random_diagrams(seed, projections_n3):
    """An R1 curl of sign e multiplies Lambda by a^e; a same-level R2 bigon
    leaves it unchanged; F and HOMFLY change under neither."""
    rng = random.Random(seed)
    p = rng.choice(projections_n3[2] + projections_n3[3])
    dd = convert_to_double(TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(p.n)]))
    lam, f, h = kauffman_lambda(dd), kauffman_f(dd), homfly(dd)
    for sign in (1, -1):
        curled = _curl(dd, rng.randrange(4 * dd.n), sign)
        curled.validate()
        assert _writhe(curled) - _writhe(dd) == sign
        assert kauffman_lambda(curled) == lam.scale(1, sign, 0)
        assert (kauffman_f(curled), homfly(curled)) == (f, h)
    face = rng.choice([face for face in dd.faces() if len(face) > 1])
    x = rng.choice(face)
    x2 = rng.choice([d for d in face if d not in (x, dd.alpha[x])])
    s = rng.randrange(4)
    pushed = _bigon(dd, x, x2, s, (s + rng.choice((0, 2))) % 4)
    pushed.validate()
    bigon = [d for d in range(4 * pushed.n) if d_sigma(pushed.alpha[d_sigma(pushed.alpha[d])]) == d
             and d // 4 >= dd.n and pushed.alpha[d] // 4 >= dd.n]
    assert len(bigon) == 2
    assert kauffman_lambda(pushed) == lam
    assert (kauffman_f(pushed), homfly(pushed)) == (f, h)
    assert kauffman_to_jones(f) == bracket_jones(pushed)


def test_kauffman_f_refuses_a_link():
    with pytest.raises(ValueError):
        kauffman_f(DoubleDiagram.from_pd(rational_knot_pd((2,))))


def test_kauffman_lambda_of_a_split_union():
    t = DoubleDiagram.from_pd(PD_TREFOIL)
    dd = DoubleDiagram(t.alpha + tuple(d + 4 * t.n for d in t.alpha))
    assert kauffman_lambda(dd) == DELTA_K * kauffman_lambda(t) ** 2
