import itertools
import random

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    HalfLaurent,
    TripleDiagram,
    TripleProjection,
    bracket_jones,
    convert_to_double,
    derive_triple_relation,
    enumerate_projections,
    jones_triple,
    jones_triple_batch,
    kauffman_bracket,
    parse_spd,
)
from tricross.alexander import _balanced_digits
from tricross.enumeration import HEIGHT_WORDS, enumerate_raw_shadows
from tricross.jones import LOOP_FACTOR, NONCROSSING, _state_loop_counts, _unpack_bracket
from tricross.tables import (
    BRAID_KNOTS,
    RATIONAL_KNOTS,
    braid_closure_pd,
    rational_knot_pd,
)
from conftest import PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2
from test_acceptance import N5_TOKEN_BEFORE_FIRST_PRIME
from test_canon import relabel

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


def _times(p, q):
    """Product of two Laurent polynomials given as exponent -> coefficient."""
    out = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _split(*parts):
    """The parts side by side in one diagram, crossings numbered in order."""
    alpha = []
    for dd in parts:
        alpha += [a + len(alpha) for a in dd.alpha]
    return DoubleDiagram(alpha, len(alpha) // 4)


def test_kauffman_bracket_of_split_diagrams():
    # <D1 D2> = delta <D1> <D2> side by side; each part can add a loop to a
    # state, so the packing widens its digits and its offset per part
    trefoil, fig8, kink, mirror_kink = (DoubleDiagram.from_pd(pd) for pd in (
        PD_TREFOIL, PD_FIG8, PD_KINK, [[1, 1, 2, 2]]))
    # three mirror kinks: the 1/A state has the most loops, 6, and its term
    # A^-3 delta^6 the lowest exponent, -15, that three crossings can reach
    for parts in ((trefoil, fig8), (mirror_kink,) * 3, (fig8, kink, trefoil, mirror_kink)):
        dd = _split(*parts)
        assert len(dd.crossing_components()) == len(parts)
        want = kauffman_bracket(parts[0])
        for part in parts[1:]:
            want = _times(_times(want, kauffman_bracket(part)), {2: -1, -2: -1})
        assert kauffman_bracket(dd) == _reference_bracket(dd) == want


def test_kauffman_bracket_on_seeded_n4_deconstructions(projections):
    # twelve crossings, the most the n <= 4 census deconstructs
    rng = random.Random(19)
    for p in rng.sample(projections[4], 3):
        dd = convert_to_double(TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)]))
        assert dd.n == 12
        assert kauffman_bracket(dd) == _reference_bracket(dd)


@pytest.mark.parametrize("m, parts", [(1, 1), (4, 1), (12, 1), (15, 1), (6, 3)])
def test_bracket_packing_round_trip_at_its_bounds(m, parts):
    # kauffman_bracket packs delta <D> for m crossings in `parts` parts: a
    # state has at most L = m + parts loops, the exponents lie in
    # [-m - 2 L, m + 2 L] and the coefficients in [-2^m 2^L, 2^m 2^L], at
    # m + L + 2 bits and offset m + 2 L (2m + 3 and 3m + 2 for a knot); the
    # digits at both ends, and negative ones, must come back exactly, and
    # so must <D> after the division by delta
    most = m + parts
    bits, offset = m + most + 2, m + 2 * most
    bound = 1 << m + most - 1  # on the coefficients of <D>
    rng = random.Random(m)
    for _ in range(50):
        bracket = {e: rng.choice((-bound, bound, rng.randint(-bound, bound), 0))
                   for e in range(2 - offset, offset - 1)}
        bracket[2 - offset] = rng.choice((-bound, bound))
        bracket[offset - 2] = rng.choice((-bound, bound))
        summed = _times(bracket, {2: -1, -2: -1})
        assert max(map(abs, summed.values())) <= 1 << m + most
        value = sum(v << bits * (e + offset) for e, v in summed.items())
        assert _balanced_digits(value, 1 << bits) == {e + offset: v for e, v in summed.items()}
        assert _unpack_bracket(value, bits, offset) == {e: v for e, v in bracket.items() if v}


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


def test_noncrossing_matchings_are_sorted_slot_tables():
    # the order that the pinned exponents above are read in
    assert NONCROSSING == [(1, 0, 3, 2, 5, 4), (1, 0, 5, 4, 3, 2), (3, 2, 1, 0, 5, 4),
                           (5, 2, 1, 4, 3, 0), (5, 4, 3, 2, 1, 0)]


def test_batch_matches_single():
    d = parse_spd(T2_1)
    p = d.projection
    words_list = list(itertools.product(["TMB", "BMT", "MTB"], repeat=2))
    batch = jones_triple_batch(p, words_list)
    for words, v in zip(words_list, batch):
        assert v == jones_triple(TripleDiagram(p, list(words)))


@pytest.mark.parametrize("words, error", [
    (("TMB",), "one height word per crossing"),
    ("TMB", "one height word per crossing"),
    (("TMB", "XYZ"), "'XYZ' is not a permutation"),
    (("TMB", "TTT"), "'TTT' is not a permutation"),
], ids=["one-word", "three-letters", "not-a-word", "repeated-letter"])
def test_batch_refuses_bad_height_words(words, error):
    # the messages of TripleDiagram, before any sum
    p = parse_spd(T2_1).projection
    with pytest.raises(DiagramError, match=error):
        jones_triple_batch(p, [("TMB", "TMB"), words])


def test_batch_on_the_crossingless_projection():
    # one unknot value per word, as jones_triple gives at n = 0
    p = TripleProjection.unknot()
    assert jones_triple_batch(p, [(), ()]) == [HalfLaurent.one()] * 2
    assert jones_triple(TripleDiagram(p, [])) == HalfLaurent.one()


def test_triple_vs_bracket_on_random_n3_diagrams():
    rng = random.Random(7)
    words_all = ["".join(w) for w in itertools.permutations("TMB")]
    for p in enumerate_projections(3):
        for _ in range(10):
            words = [rng.choice(words_all) for _ in range(3)]
            d = TripleDiagram(p, words)
            assert jones_triple(d) == bracket_jones(convert_to_double(d))


def _reference_loop_counts(proj):
    """Loop count of each resolution, in the order of
    ``itertools.product(range(5), repeat=n)``: one walk of all 6n darts per
    state, alternating the pairing and the state's matchings."""
    n = proj.n
    counts = []
    for state in itertools.product(range(5), repeat=n):
        seen = [False] * (6 * n)
        loops = 0
        for start in range(6 * n):
            if seen[start]:
                continue
            loops += 1
            d = start
            while not seen[d]:
                seen[d] = True
                e = proj.alpha[d]
                seen[e] = True
                c = e // 6
                d = 6 * c + NONCROSSING[state[c]][e - 6 * c]
        counts.append(loops)
    return counts


def _reference_jones_triple_batch(proj, height_words):
    """The triple-crossing state sum term by term: for each word and each
    of the 5^n resolutions, (-1)^n LOOP_FACTOR^(loops - 1) times t to the
    sum of the crossings' relation exponents."""
    n = proj.n
    exponents = derive_triple_relation().exponents
    states = []
    for state in itertools.product(range(5), repeat=n):
        seen = [False] * (6 * n)
        loops = 0
        for start in range(6 * n):
            if seen[start]:
                continue
            loops += 1
            d = start
            while not seen[d]:
                seen[d] = True
                e = proj.alpha[d]
                seen[e] = True
                c = e // 6
                d = 6 * c + NONCROSSING[state[c]][e - 6 * c]
        states.append((state, (LOOP_FACTOR ** (loops - 1)).coeffs.items()))
    sign = -1 if n % 2 else 1
    results = []
    for words in height_words:
        acc = {}
        for state, loop_terms in states:
            e2 = sum(exponents[w][mi] for w, mi in zip(words, state))
            for le2, lv in loop_terms:
                acc[e2 + le2] = acc.get(e2 + le2, 0) + sign * lv
        results.append(HalfLaurent({k: v for k, v in acc.items() if v}))
    return results


@pytest.fixture(scope="module")
def projections():
    return {n: enumerate_projections(n) for n in (1, 2, 3, 4)}


def test_contraction_equals_the_state_sum(projections):
    # every height word of the n <= 3 projections, then 12 seeded words per
    # n = 4 projection in one batch
    checked = 0
    for n in (1, 2, 3):
        for p in projections[n]:
            words_list = list(itertools.product(HEIGHT_WORDS, repeat=n))
            assert jones_triple_batch(p, words_list) == \
                _reference_jones_triple_batch(p, words_list)
            checked += len(words_list)
    rng = random.Random(13)
    for p in projections[4]:
        words_list = [tuple(rng.choice(HEIGHT_WORDS) for _ in range(4)) for _ in range(12)]
        assert jones_triple_batch(p, words_list) == \
            _reference_jones_triple_batch(p, words_list)
        checked += len(words_list)
    assert checked == 6 + 36 + 2 * 216 + 12 * len(projections[4])


def test_single_diagram_contraction_equals_the_state_sum(projections):
    # seeded n = 3 and n = 4 diagrams relabelled, half of them reflected
    # with T <-> B swapped (the same knot seen from the other side)
    swap = str.maketrans("TB", "BT")
    rng = random.Random(17)
    for n in (3, 4):
        for p in projections[n]:
            for _ in range(3):
                d = TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(n)])
                reflect = rng.random() < 0.5
                e = relabel(p, rng.sample(range(n), n), [rng.randrange(6) for _ in range(n)],
                            reflect, [w.translate(swap) if reflect else w for w in d.heights])
                (want,) = _reference_jones_triple_batch(e.projection, [e.heights])
                assert jones_triple(e) == want == jones_triple(d)


def test_loop_counts_equal_the_walk_of_every_state(projections):
    # every projection at n <= 4, and seeded prime shadows at n = 5 taken
    # as the Alexander tests take them, from a resume token
    shadows = [p for p in itertools.islice(
        enumerate_raw_shadows(5, resume_token=N5_TOKEN_BEFORE_FIRST_PRIME), 300)
        if p.is_prime()]
    checked = [p for n in (1, 2, 3, 4) for p in projections[n]]
    checked += random.Random(5).sample(shadows, 8)
    for p in checked:
        assert _state_loop_counts(p) == _reference_loop_counts(p)
    assert len(checked) == 1 + 1 + 2 + len(projections[4]) + 8
