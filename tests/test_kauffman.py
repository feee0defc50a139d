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
    enumerate_projections,
    fold_jones,
    fold_kauffman,
    homfly,
    kauffman_f,
    kauffman_lambda,
    parse_spd,
    rational_knot_pd,
)
from tricross.enumeration import HEIGHT_WORDS, enumerate_diagrams
from tricross.homfly import _Homfly
from tricross.kauffman import DELTA_K, _Kauffman
from tricross.laurent import Laurent2
from tricross.maps import d_sigma
from tricross.skein import _reduce, _renumber, _splice, reduce
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
    assert kinks == dd.writhe() in (1, -1)
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
    return dd.writhe()


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


# -- the in-place reduction against the per-move reference ----------------------

def _reference_smooth(dd, tails, flips, c, p):
    """Crossing ``c`` smoothed at parity ``p`` by walking each strand
    through it, renumbered: the smaller state and the circles freed."""
    alpha = list(dd.alpha)
    darts = range(4 * c, 4 * c + 4)

    def through(d):
        # the dart of c joined to d: slots p + 2k and p + 2k + 1 pair up
        return 4 * c + (((d + p) ^ 1) - p) % 4

    seen = set()
    for d in darts:
        e = dd.alpha[d]
        if e // 4 == c:
            continue
        # the strand that enters c at d runs through c until it leaves
        while d // 4 == c:
            seen.add(d)
            d = through(d)
            seen.add(d)
            d = dd.alpha[d]
        alpha[e] = d
    # the darts of c that no strand reached close into circles
    loops = 0
    for d in darts:
        if d not in seen:
            loops += 1
            while d not in seen:
                seen.add(d)
                d = through(d)
                seen.add(d)
                d = dd.alpha[d]
    crossings = [k for k in range(dd.n) if k != c]
    return (*_renumber(alpha, tails, flips, crossings), loops)


def _over(d, flips):
    return (d % 2 == 1) != (d // 4 in flips)


def _reference_next_move(dd, flips):
    """The first kink, else the first same-level bigon, scanned from dart 0,
    as its kink writhe and its ``(crossing, parity)`` steps, higher crossing
    first."""
    alpha = dd.alpha
    for d in range(4 * dd.n):
        if d_sigma(alpha[d]) == d:
            return (-1 if _over(d, flips) else 1), [(d // 4, d % 2)]
    for d in range(4 * dd.n):
        e = alpha[d]
        f = d_sigma(e)
        g = alpha[f]
        if d_sigma(g) == d and d // 4 != e // 4 and _over(d, flips) == _over(e, flips):
            return 0, sorted([(d // 4, d % 2), (e // 4, f % 2)], reverse=True)
    return None


def _reference_reduce(dd, tails, flips):
    """:func:`reduce` one move at a time, renumbering after each smoothing."""
    kinks = loops = 0
    move = _reference_next_move(dd, flips)
    while move is not None:
        sign, steps = move
        kinks += sign
        for c, p in steps:
            dd, tails, flips, freed = _reference_smooth(dd, tails, flips, c, p)
            loops += freed
        move = _reference_next_move(dd, flips)
    return dd, tails, flips, kinks, loops


def _reference_engine(engine):
    """``engine``'s class with every state smoothed and reduced by the
    references; each state it reduces is checked against :func:`reduce`,
    and each smoothing against its splice and in-place reduction."""

    class Reference(engine):
        def eval(self, dd, tails, flips):
            self._count_node()
            if dd.n == 0:
                return Laurent2.one()
            state = _reference_reduce(dd, tails, flips)
            assert reduce(dd, tails, flips) == state
            return self._reduced_value(*state)

        def smoothed(self, dd, tails, flips, c, p):
            sub, sub_tails, sub_flips, loops = _reference_smooth(dd, tails, flips, c, p)
            alpha = list(dd.alpha)
            assert _splice(alpha, c, p) == loops
            want = _reference_reduce(sub, sub_tails, sub_flips)
            live = [k for k in range(dd.n) if k != c]
            assert _reduce(dd, alpha, live, tails, flips, loops) == (*want[:4], want[4] + loops)
            return self._with_circles(self.eval(sub, sub_tails, sub_flips), sub.n, loops)

    return Reference


@pytest.fixture(scope="module")
def skein_diagrams(projections_n3):
    """The deconstructions of every distinct diagram at n <= 3 and of six
    seeded ones at n = 4."""
    diagrams = [d for n in (2, 3) for p in projections_n3[n] for d in enumerate_diagrams(p)]
    rng = random.Random(24)
    for p in rng.sample(enumerate_projections(4), 6):
        diagrams.append(TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)]))
    return [convert_to_double(d) for d in diagrams]


def test_engines_reduce_every_state_as_the_reference(skein_diagrams):
    # the same value, node count and memo, in both directions of HOMFLY and
    # for Kauffman's unoriented recursion
    checked = 0
    for dd in skein_diagrams:
        for engine, tails in [(_Homfly, t) for t in dd.orientations()] + [(_Kauffman, NO_TAILS)]:
            fast, slow = engine(), _reference_engine(engine)()
            assert fast.eval(dd, tails, NO_FLIPS) == slow.eval(dd, tails, NO_FLIPS)
            assert (fast.nodes, fast.memo) == (slow.nodes, slow.memo)
            checked += slow.nodes
    assert len(skein_diagrams) == 21 + 330 + 6
    assert checked > 2_000


def test_splice_of_a_kink_crossing():
    # slots 0-1 and 2-3 glued: parity 0 joins each glued pair, two circles;
    # parity 1 closes one circle through both joined pairs, as the first
    # splice glues the second pair's darts to each other.  Slots 0-3 and
    # 1-2 glued (the other kink) swap the two parities.
    for alpha, p, loops in (([1, 0, 3, 2], 0, 2), ([1, 0, 3, 2], 1, 1),
                            ([3, 2, 1, 0], 1, 2), ([3, 2, 1, 0], 0, 1)):
        assert _splice(list(alpha), 0, p) == loops


def test_splice_closes_one_circle_through_both_pairs_beside_a_diagram():
    # a curl beside the trefoil: its crossing's darts are glued among
    # themselves, and smoothing it leaves the trefoil's pairing untouched
    t = DoubleDiagram.from_pd(PD_TREFOIL)
    alpha = list(t.alpha) + [13, 12, 15, 14]
    dd = DoubleDiagram(alpha, 4)
    assert _splice(alpha, 3, 1) == 1
    assert alpha[:12] == list(t.alpha)
    reduced, _, _, _, loops = reduce(dd, NO_TAILS, NO_FLIPS)
    assert (reduced, loops) == (t, 1)


def _moved(dd, order):
    """``dd`` with its crossings relabelled: new crossing ``i`` is old
    crossing ``order[i]``; with the map of darts."""
    new = {c: i for i, c in enumerate(order)}
    label = lambda d: 4 * new[d // 4] + d % 4
    alpha = [0] * (4 * dd.n)
    for d, e in enumerate(dd.alpha):
        alpha[label(d)] = label(e)
    return DoubleDiagram(alpha, dd.n), label


def test_reduce_drops_exactly_the_removed_crossings_from_tails_and_flips():
    # a kink on the trefoil, relabelled to sit between its crossings, with
    # every crossing flipped: the mirror trefoil stays alternating
    curled = _curl(DoubleDiagram.from_pd(PD_TREFOIL), 5, 1)
    dd, label = _moved(curled, [0, 3, 1, 2])
    tails = frozenset(label(d) for d in curled.orientations()[0])
    flips = frozenset(range(4))
    reduced, sub_tails, sub_flips, kinks, loops = reduce(dd, tails, flips)
    assert (reduced.n, kinks, loops) == (3, -1, 0)
    keep = {0: 0, 2: 1, 3: 2}   # old labels of the live crossings -> new
    assert sub_flips == frozenset({0, 1, 2})
    assert sub_tails == frozenset(4 * keep[d // 4] + d % 4 for d in tails if d // 4 in keep)
    assert sub_tails in reduced.orientations()
