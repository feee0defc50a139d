import itertools
import random

from tricross import (
    DoubleDiagram,
    HalfLaurent,
    TripleDiagram,
    bracket_jones,
    convert_to_double,
    derive_triple_relation,
    enumerate_projections,
    jones_triple,
    jones_triple_batch,
    kauffman_bracket,
    parse_spd,
)
from tricross.enumeration import HEIGHT_WORDS
from tricross.tables import (
    BRAID_KNOTS,
    RATIONAL_KNOTS,
    braid_closure_pd,
    rational_knot_pd,
)
from conftest import PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2

V_TREFOIL = {2: 1, 6: 1, 8: -1}          # t + t^3 - t^4  (exp2 keys)
V_FIG8 = {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1}


def test_bracket_jones_standard_pds():
    vt = bracket_jones(DoubleDiagram.from_pd(PD_TREFOIL))
    assert vt in (HalfLaurent(V_TREFOIL), HalfLaurent(V_TREFOIL).invert_t())
    assert bracket_jones(DoubleDiagram.from_pd(PD_FIG8)) == HalfLaurent(V_FIG8)


def test_bracket_jones_kink_is_unknot():
    assert bracket_jones(DoubleDiagram.from_pd(PD_KINK)) == HalfLaurent.one()


def test_kauffman_bracket_unnormalized_values():
    b = kauffman_bracket(DoubleDiagram.unknot())
    assert b == {0: 1}


def _reference_bracket(dd):
    """The bracket as a plain 2^m state sum: one union-find over the 4m
    darts per state, each closed loop a class."""
    m = dd.n
    if m == 0:
        return {0: 1}
    total = {}
    for state in range(1 << m):
        parent = list(range(4 * m))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        for d in range(4 * m):
            union(d, dd.alpha[d])
        a_exp = 0
        for c in range(m):
            if state >> c & 1:  # A smoothing
                a_exp += 1
                union(4 * c + 1, 4 * c + 2)
                union(4 * c + 3, 4 * c + 0)
            else:
                a_exp -= 1
                union(4 * c + 0, 4 * c + 1)
                union(4 * c + 2, 4 * c + 3)
        loops = sum(1 for d in range(4 * m) if find(d) == d)
        # A^a_exp (-A^2 - A^-2)^(loops - 1)
        poly = {a_exp: 1}
        for _ in range(loops - 1):
            nxt = {}
            for e, v in poly.items():
                for de in (2, -2):
                    nxt[e + de] = nxt.get(e + de, 0) - v
            poly = nxt
        for e, v in poly.items():
            total[e] = total.get(e, 0) + v
    return {e: v for e, v in total.items() if v}


def _bracket_test_diagrams():
    """Every deconstructed diagram with n <= 2, 40 seeded ones with n = 3,
    the fixture PD codes, the unknot, the Hopf clasp and the knots of the
    reference table (10 crossings at most)."""
    for n in (1, 2):
        for p in enumerate_projections(n):
            for words in itertools.product(HEIGHT_WORDS, repeat=n):
                yield convert_to_double(TripleDiagram(p, list(words)))
    rng = random.Random(11)
    projections = enumerate_projections(3)
    for _ in range(40):
        words = [rng.choice(HEIGHT_WORDS) for _ in range(3)]
        yield convert_to_double(TripleDiagram(rng.choice(projections), words))
    yield DoubleDiagram.unknot()
    for pd in (PD_TREFOIL, PD_FIG8, PD_KINK, rational_knot_pd((2,))):
        yield DoubleDiagram.from_pd(pd)
    for twists in RATIONAL_KNOTS.values():
        yield DoubleDiagram.from_pd(rational_knot_pd(twists))
    for strands, word in BRAID_KNOTS.values():
        yield DoubleDiagram.from_pd(braid_closure_pd(strands, word))


def test_kauffman_bracket_equals_the_plain_state_sum():
    checked = 0
    for dd in _bracket_test_diagrams():
        assert kauffman_bracket(dd) == _reference_bracket(dd)
        checked += 1
    assert checked == 6 + 36 + 40 + 5 + len(RATIONAL_KNOTS) + len(BRAID_KNOTS)


def test_jones_triple_fixtures():
    assert jones_triple(parse_spd(T2_1)) in (
        HalfLaurent(V_TREFOIL), HalfLaurent(V_TREFOIL).invert_t())
    assert jones_triple(parse_spd(T2_2)) == HalfLaurent(V_FIG8)


def test_derive_triple_relation_multiset_and_mirror():
    rel = derive_triple_relation()
    plus = sorted(str(c) for c in rel.coefficient_multiset("x"))
    minus = sorted(str(c) for c in rel.coefficient_multiset("y"))
    # {-t^{3/2}, -t, -t, -t^{1/2}, -t^{1/2}} and its t -> 1/t image
    want_plus = sorted(str(HalfLaurent({e: -1})) for e in (3, 2, 2, 1, 1))
    want_minus = sorted(str(HalfLaurent({e: -1})) for e in (-3, -2, -2, -1, -1))
    assert plus == want_plus
    assert minus == want_minus
    assert sorted(
        str(c.invert_t()) for c in rel.coefficient_multiset("x")) == minus


def test_derive_triple_relation_exponents_per_matching():
    # the multiset cannot see two matchings swapped; pin each word's
    # exponents in the order of NONCROSSING
    assert derive_triple_relation().exponents == {
        "TMB": [2, 1, 1, 2, 3],
        "TBM": [-2, -3, -1, -2, -1],
        "MTB": [-2, -1, -3, -2, -1],
        "MBT": [2, 1, 3, 2, 1],
        "BTM": [2, 3, 1, 2, 1],
        "BMT": [-2, -1, -1, -2, -3],
    }


def test_batch_matches_single():
    d = parse_spd(T2_1)
    p = d.projection
    words_list = list(itertools.product(["TMB", "BMT", "MTB"], repeat=2))
    batch = jones_triple_batch(p, words_list)
    for words, v in zip(words_list, batch):
        assert v == jones_triple(TripleDiagram(p, list(words)))


def test_triple_vs_bracket_on_random_n3_diagrams():
    rng = random.Random(7)
    words_all = ["".join(w) for w in itertools.permutations("TMB")]
    for p in enumerate_projections(3):
        for _ in range(10):
            words = [rng.choice(words_all) for _ in range(3)]
            d = TripleDiagram(p, words)
            assert jones_triple(d) == bracket_jones(convert_to_double(d))
