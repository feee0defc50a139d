"""Knot-group quotient counts, including the connected-sum cross-examination
of the three classes whose polynomials factor like sums (witnesses frozen
from the n = 4 classification)."""

import random

import pytest

from tricross import (
    DoubleDiagram,
    TripleDiagram,
    connected_sum_counts,
    convert_to_double,
    hom_counts,
    homfly,
    kauffman_f,
    meridional_profile,
    parse_spd,
    permutation_group,
    rational_knot_pd,
)
from tricross.alexander import _wirtinger
from tricross.enumeration import _first_words
from tricross.laurent import Laurent2
from tricross.quotients import _mul
from conftest import W_31_41, W_41_41, W_SQUARE

# An n = 4 unknot diagram (Jones and Alexander 1) on which branching on the
# lowest-numbered free arc did not finish the S4 profile in 20 s.
W_SLOW_BRANCHING = "sPD[X[1,1,2,3,4,5|TMB],X[2,6,7,8,4,3|MTB],X[5,9,10,11,7,6|MBT],X[8,11,10,9,12,12|BTM]]"


@pytest.fixture(scope="module")
def s4():
    return permutation_group("S4")


@pytest.fixture(scope="module")
def s3():
    return permutation_group("S3")


def test_group_structure(s4, s3):
    els, inv, classes = s4
    assert len(els) == 24
    assert sorted(len(C) for C in classes) == [1, 3, 6, 6, 8]
    assert all(inv[p] in els for p in els)
    assert sorted(len(C) for C in s3[2]) == [1, 2, 3]


def test_unknot_profile(s4):
    # pi_1 = Z: exactly one homomorphism per target element
    _, _, classes = s4
    assert hom_counts(DoubleDiagram.unknot(), s4) == [len(C) for C in classes]


def test_trefoil_s3_counts(s3):
    # transposition class: 9 = the classical count of Fox 3-colorings
    tre = DoubleDiagram.from_pd(rational_knot_pd((3,)))
    _, _, classes = s3
    counts = dict(zip((len(C) for C in classes), hom_counts(tre, s3)))
    assert counts[3] == 9   # reflections / transpositions
    assert counts[1] == 1   # trivial homomorphism only


def test_figure_eight_s3_counts(s3):
    # det(4_1) = 5 is not divisible by 3: only trivial colorings
    fig8 = DoubleDiagram.from_pd(rational_knot_pd((2, 2)))
    _, _, classes = s3
    counts = dict(zip((len(C) for C in classes), hom_counts(fig8, s3)))
    assert counts[3] == 3


def test_composite_fingerprint_classes_match_sum_counts(s4):
    """The three flagged classes agree with the predicted sum profiles in S4.

    This corroborates the composite flags with an invariant that is not a
    polynomial specialization; it cannot prove compositeness.
    """
    tre = DoubleDiagram.from_pd(rational_knot_pd((3,)))
    fig8 = DoubleDiagram.from_pd(rational_knot_pd((2, 2)))
    p31 = meridional_profile(tre, s4)
    p41 = meridional_profile(fig8, s4)
    cases = [
        (W_SQUARE, p31, p31),
        (W_31_41, p31, p41),
        (W_41_41, p41, p41),
    ]
    for spd, pa, pb in cases:
        dd = convert_to_double(parse_spd(spd))
        assert hom_counts(dd, s4) == connected_sum_counts(pa, pb, s4)


@pytest.mark.parametrize(
    "invariant, mirror",
    [(homfly, Laurent2.mirror), (kauffman_f, Laurent2.invert_a)],
    ids=["homfly", "kauffman_f"])
def test_composite_fingerprint_classes_match_sum_polynomials(invariant, mirror):
    """HOMFLY and Kauffman F of the three flagged witnesses are the products
    of the summands' (both are multiplicative under connected sum)."""
    tre = invariant(DoubleDiagram.from_pd(rational_knot_pd((3,))))
    fig8 = invariant(DoubleDiagram.from_pd(rational_knot_pd((2, 2))))
    assert fig8 == mirror(fig8)  # 4_1 is amphichiral
    square = tre * mirror(tre)
    assert square not in (tre * tre, mirror(tre * tre))  # not the granny
    sums = {
        W_SQUARE: {square},
        W_31_41: {tre * fig8, mirror(tre) * fig8},
        W_41_41: {fig8 * fig8},
    }
    for spd, want in sums.items():
        assert invariant(convert_to_double(parse_spd(spd))) in want


def test_sum_counts_distinguish_square_from_granny(s4):
    # 3_1 # m3_1 and 3_1 # 3_1 share S4 predictions (the group ignores
    # mirroring), but differ from 4_1 # 4_1.
    tre = DoubleDiagram.from_pd(rational_knot_pd((3,)))
    fig8 = DoubleDiagram.from_pd(rational_knot_pd((2, 2)))
    p31 = meridional_profile(tre, s4)
    p41 = meridional_profile(fig8, s4)
    assert connected_sum_counts(p31, p31, s4) != connected_sum_counts(p41, p41, s4)


# -- the pinned-count solver as first written, kept as a reference ------------


def _reference_count_pinned(passes, cls, inv, rep):
    """Branches on the lowest-numbered unassigned arc."""
    arcs = len(passes)

    def solve(assign):
        changed = True
        while changed:
            changed = False
            for inn, (over, sign) in enumerate(passes):
                out = (inn + 1) % arcs
                w = assign[over]
                if w is None:
                    continue
                a, b = (w, inv[w]) if sign > 0 else (inv[w], w)
                if assign[inn] is not None:
                    y = _mul(_mul(a, assign[inn]), b)
                    if assign[out] is None:
                        assign[out] = y
                        changed = True
                    elif assign[out] != y:
                        return 0
                elif assign[out] is not None:
                    assign[inn] = _mul(_mul(b, assign[out]), a)
                    changed = True
        for i in range(arcs):
            if assign[i] is None:
                return sum(solve(assign[:i] + [g] + assign[i + 1:]) for g in cls)
        return 1

    start = [None] * arcs
    start[0] = rep
    return solve(start)


def _reference_profile(dd, group):
    _, inv, classes = group
    passes = _wirtinger(dd)
    if not passes:
        return [1 for _ in classes]
    return [_reference_count_pinned(passes, C, inv, C[0]) for C in classes]


def test_profiles_equal_the_reference_solver_up_to_three(projections_n3):
    """One diagram per mirror class at n <= 3: all of them in S3 and A4, a
    seeded sample in S4, where the reference solver is slowest."""
    diagrams = [convert_to_double(TripleDiagram(p, words))
                for p in projections_n3[2] + projections_n3[3]
                for words in _first_words(p, fold_mirror=True).values()]
    sample = random.Random(0).sample(diagrams, 20)
    for name, dds in (("S3", diagrams), ("A4", diagrams), ("S4", sample)):
        group = permutation_group(name)
        for dd in dds:
            assert meridional_profile(dd, group) == _reference_profile(dd, group)


@pytest.mark.parametrize("name", ["S4", "S5", "A5"])
def test_profile_of_a_diagram_the_reference_solver_does_not_finish(name):
    group = permutation_group(name)
    dd = convert_to_double(parse_spd(W_SLOW_BRANCHING))
    assert meridional_profile(dd, group) == meridional_profile(DoubleDiagram.unknot(), group)
