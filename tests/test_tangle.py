import itertools
import random

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    TripleDiagram,
    TripleProjection,
    alexander,
    convert_to_double,
    enumerate_projections,
    jones_triple,
    parse_spd,
)
from tricross.enumeration import HEIGHT_WORDS
from tricross.maps import HEIGHT_RANK
from tricross.tangle import local_tangle, local_walk, local_writhe
from conftest import T2_1, T2_2


def test_conversion_produces_valid_knot_diagrams():
    for text in (T2_1, T2_2):
        dd = convert_to_double(parse_spd(text))
        assert dd.n == 3 * 2  # three double crossings per triple crossing
        assert dd.num_components() == 1


# (name, pairing, error) of projections that TripleProjection takes,
# checking only that the pairing is an involution
UNVALIDATED = [
    # two crossings joined to themselves only
    ("disconnected", [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10], "disconnected"),
    # one crossing drawn on the torus: one curve, two faces
    ("not-spherical", [1, 0, 4, 5, 2, 3], "not spherical"),
]


@pytest.mark.parametrize("refuse, alpha, error", [
    pytest.param(refuse, alpha, error, id=name + suffix)
    for suffix, refuse in (("", convert_to_double), ("-alexander", alexander),
                           ("-jones", jones_triple))
    for name, alpha, error in UNVALIDATED])
def test_conversion_refuses_an_unvalidated_projection(refuse, alpha, error):
    # the deconstruction's own validation, Alexander's walk of the triple
    # diagram and the Jones state sum's check of its projection refuse it
    d = TripleDiagram(TripleProjection(alpha), ["TMB"] * (len(alpha) // 6))
    with pytest.raises(DiagramError, match=error):
        refuse(d)


def test_alexander_refuses_a_projection_of_two_curves():
    # one crossing whose three strands close into two curves: a spherical
    # link projection, which the deconstruction takes
    d = TripleDiagram(TripleProjection([1, 0, 5, 4, 3, 2]), ["TMB"])
    dd = convert_to_double(d)
    assert dd.num_components() == 2
    for refuse, diagram in ((alexander, d), (alexander, dd), (jones_triple, d)):
        with pytest.raises(DiagramError, match="not a knot"):
            refuse(diagram)


def test_local_writhe_totals():
    # each height word resolves into three pairwise crossings; the local
    # writhe is the sum of their signs and flips under word reversal
    for word in ("".join(w) for w in itertools.permutations("TMB")):
        w = local_writhe(word)
        assert w in (-3, -1, 1, 3)
        assert local_writhe(word[::-1]) == -w


def test_local_crossing_signs_pm_one():
    # the three internal double crossings "a", "b", "c", in that order
    for word in ("".join(w) for w in itertools.permutations("TMB")):
        signs = local_walk(word)[1]
        assert len(signs) == 3 and set(signs) <= {-1, 1}


# A frozen copy of the signs of sub-crossings a, b, c per height word, and
# of the order in which each strand meets the other two in its natural
# direction (strand j meets j - 1, then j + 1), from the hand tables that the
# walk of the 12-dart table replaced.
_SIGNS = {
    "TMB": (-1, 1, 1), "TBM": (-1, 1, -1), "MTB": (-1, -1, 1),
    "MBT": (1, 1, -1), "BTM": (1, -1, 1), "BMT": (1, -1, -1),
}
_MEETINGS = ((("a", 2), ("b", 1)), (("b", 0), ("c", 2)), (("c", 1), ("a", 0)))


@pytest.mark.parametrize("word", HEIGHT_WORDS)
def test_local_walk_equals_the_frozen_tables(word):
    meets, signs = local_walk(word)
    assert signs == _SIGNS[word]
    assert tuple(tuple(("abc"[i], k) for i, k in strand) for strand in meets) == _MEETINGS


def test_conversion_respects_mirror():
    # reversing every height word mirrors the diagram: converted double
    # diagrams have opposite writhe
    d = parse_spd(T2_1)
    mirror = TripleDiagram(d.projection, [w[::-1] for w in d.heights])
    dd, mm = convert_to_double(d), convert_to_double(mirror)
    assert dd.writhe() == -mm.writhe()


# A frozen copy of the tangle geometry and of the connection-format
# conversion that read it before the 12-dart table, kept as a reference.
_ENDS = {
    "a": [(0, 0, ("bd", 0)), (120, 2, ("c", 300)), (180, 0, ("b", 0)), (300, 2, ("bd", 5))],
    "b": [(0, 0, ("a", 180)), (60, 1, ("c", 240)), (180, 0, ("bd", 3)), (240, 1, ("bd", 4))],
    "c": [(60, 1, ("bd", 1)), (120, 2, ("bd", 2)), (240, 1, ("b", 60)), (300, 2, ("a", 120))],
}
_STRANDS = {"a": (0, 2), "b": (0, 1), "c": (1, 2)}


def _tangle_slots(crossing, heights):
    ends = sorted(_ENDS[crossing])
    s1, s2 = _STRANDS[crossing]
    under = s1 if HEIGHT_RANK[heights[s1]] < HEIGHT_RANK[heights[s2]] else s2
    if ends[0][1] != under:
        ends = ends[1:] + ends[:1]
    return [(strand, conn) for _, strand, conn in ends]


def _reverse_conn(crossing, conn):
    target, angle = conn
    for a, _, c in _ENDS[target]:
        if a == angle:
            assert c[0] == crossing
            return c
    raise AssertionError("inconsistent tangle tables")


def _boundary_owner(slot):
    for x, ends in _ENDS.items():
        for _, _, conn in ends:
            if conn == ("bd", slot):
                return x
    raise AssertionError("no tangle end for boundary slot")


def _reference_convert_to_double(diagram):
    n = diagram.n
    if n == 0:
        return DoubleDiagram.unknot()
    sub_index = {"a": 0, "b": 1, "c": 2}
    end_dart = {}
    for t in range(n):
        w = diagram.heights[t]
        for x in "abc":
            c = 3 * t + sub_index[x]
            for s, (_, conn) in enumerate(_tangle_slots(x, w)):
                end_dart[(t, x, conn)] = 4 * c + s
    alpha = [0] * (12 * n)
    for t in range(n):
        w = diagram.heights[t]
        for x in "abc":
            for _, conn in _tangle_slots(x, w):
                d = end_dart[(t, x, conn)]
                if conn[0] == "bd":
                    other = diagram.alpha[6 * t + conn[1]]
                    e = end_dart[(other // 6, _boundary_owner(other % 6), ("bd", other % 6))]
                else:
                    e = end_dart[(t, conn[0], _reverse_conn(x, conn))]
                alpha[d], alpha[e] = e, d
    dd = DoubleDiagram(alpha, 3 * n)
    dd.validate()
    return dd


def test_local_tangle_is_one_table_per_word():
    # 12 darts: an involution on the 6 internal ones, the other 6 at the
    # boundary slots; built once per height word
    for word in HEIGHT_WORDS:
        partner, boundary = local_tangle(word)
        assert local_tangle(word) is local_tangle(word)
        assert sorted(boundary) == [d for d in range(12) if partner[d] < 0]
        assert all(partner[partner[d]] == d != partner[d] for d in range(12) if partner[d] >= 0)


def test_conversion_equals_the_reference():
    # every height word of the n <= 3 projections, then 12 seeded words per
    # n = 4 projection
    rng = random.Random(12)
    diagrams = [TripleDiagram(p, words) for n in (1, 2, 3) for p in enumerate_projections(n)
                for words in itertools.product(HEIGHT_WORDS, repeat=n)]
    for p in enumerate_projections(4):
        diagrams += [TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)])
                     for _ in range(12)]
    assert len(diagrams) == 474 + 12 * 15
    for d in diagrams:
        assert convert_to_double(d).alpha == _reference_convert_to_double(d).alpha
