import random

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    InternalConsistencyError,
    SpdSyntaxError,
    TripleDiagram,
    TripleProjection,
    natural_orientations,
    parse_spd,
    rational_knot_pd,
)
from conftest import PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2


def faces(alpha, sigma_next):
    """Count faces of the rotation system via the face permutation."""
    darts = range(len(alpha))
    seen = set()
    count = 0
    for d in darts:
        if d in seen:
            continue
        count += 1
        e = d
        while e not in seen:
            seen.add(e)
            e = sigma_next(alpha[e])
    return count


def test_projection_euler_characteristic():
    p = parse_spd(T2_1).projection
    # V - E + F = 2 on the sphere: V = n, E = 3n, F from face tracing.
    n = p.n
    f = faces(p.alpha, lambda d: 6 * (d // 6) + (d + 1) % 6)
    assert n - 3 * n + f == 2


def test_projection_validate_rejects_non_spherical():
    # A pairing with the wrong face count must be refused by validate().
    p = TripleProjection([3, 4, 5, 0, 1, 2], 1)  # torus map: 2 faces, not 4
    assert not p.is_spherical()
    with pytest.raises(DiagramError):
        p.validate()


def test_projection_rejects_non_involution():
    with pytest.raises(DiagramError):
        TripleProjection([1, 2, 0, 4, 5, 3], 1)


def test_natural_orientations_exactly_two_and_reverse():
    for text in (T2_1, T2_2):
        d = parse_spd(text)
        orients = natural_orientations(d)
        assert len(orients) == 2
        # the two are mutual reversals: every edge flips to its twin dart
        assert frozenset(d.alpha[e] for e in orients[0]) == orients[1]
        assert frozenset(d.alpha[e] for e in orients[1]) == orients[0]


def test_double_diagram_from_pd_roundtrip_counts():
    dd = DoubleDiagram.from_pd(PD_TREFOIL)
    assert dd.n == 3
    assert dd.num_components() == 1
    tails = dd.orientations()[0]
    assert abs(dd.writhe()) == 3  # trefoil is alternating, |w| = 3
    assert all(dd.crossing_sign(c, tails) in (-1, 1) for c in range(dd.n))


def test_double_diagram_kink_writhe():
    dd = DoubleDiagram.from_pd(PD_KINK)
    assert dd.n == 1
    assert abs(dd.writhe()) == 1


def test_double_diagram_fig8_writhe_zero():
    dd = DoubleDiagram.from_pd(PD_FIG8)
    assert dd.writhe() == 0


def test_writhe_is_the_knot_writhe_along_either_orientation():
    dd = DoubleDiagram.from_pd(rational_knot_pd((3,)))
    for tails in dd.orientations():
        assert sum(dd.crossing_sign(c, tails) for c in range(dd.n)) == dd.writhe() == -3
    with pytest.raises(DiagramError, match="not a knot"):
        DoubleDiagram.from_pd(rational_knot_pd((2,))).writhe()


def test_from_pd_rejects_bad_edge_multiplicity():
    with pytest.raises(DiagramError):
        DoubleDiagram.from_pd([[1, 2, 3, 4]])


def test_diagram_requires_height_word_per_crossing():
    p = parse_spd(T2_1).projection
    with pytest.raises(DiagramError):
        TripleDiagram(p, ["TMB"])  # wrong number of words
    with pytest.raises(DiagramError):
        TripleDiagram(p, ["TMB", "TTB"])  # not a permutation of T/M/B


def _spd(code):
    """A projection through the sPD text parser."""
    return parse_spd("sPD[" + ",".join(f"X[{','.join(map(str, x))}]" for x in code) + "]")


# Per valence: its map class, its label parser with the error that parser
# raises, and the labels of a spherical two-component map.
@pytest.mark.parametrize("cls, build, error, link", [
    (TripleProjection, _spd, SpdSyntaxError, [[1, 2, 2, 1, 3, 3]]),
    (DoubleDiagram, DoubleDiagram.from_pd, DiagramError, [[1, 3, 4, 2], [3, 1, 2, 4]]),
])
def test_map_contract_on_both_valences(cls, build, error, link):
    V = cls.V
    kinks = [d ^ 1 for d in range(V)]  # one crossing, a loop on each slot pair
    assert cls(kinks).is_spherical()
    assert cls(kinks).num_components() == 1
    assert len(cls(kinks).orientations()) == 2
    for bad in ([kinks[:-1]], [kinks, 2], [list(range(1, V)) + [0]]):
        with pytest.raises(DiagramError):
            cls(*bad)  # wrong pairing length, twice; a rotation, not an involution
    apart = cls(kinks + [d + V for d in kinks])
    torus = cls([(d + V // 2) % V for d in range(V)])
    assert not apart.is_connected() and not apart.is_spherical()
    assert torus.is_connected() and not torus.is_spherical()
    for m in (apart, torus):
        with pytest.raises(DiagramError):
            m.validate()

    labels = [1 + s // 2 for s in range(V)]
    assert build([labels]) == cls(kinks)
    for bad in ([labels[:-1]],                            # a label too few
                [labels[:-1] + [V]],                      # a label seen once
                [labels, [lab + V for lab in labels]],    # disconnected
                [[1 + s % (V // 2) for s in range(V)]]):  # torus
        with pytest.raises(error):
            build(bad)

    two = build(link)
    assert two.num_components() == 2 and two.is_spherical()
    with pytest.raises(DiagramError):
        two.orientations()


def test_natural_orientations_refuse_a_link():
    two = parse_spd("sPD[X[1,2,2,1,3,3]]")
    with pytest.raises(InternalConsistencyError):
        natural_orientations(TripleDiagram(two, ["TMB"]))


def _reference_walks(dd, tails=None):
    """The skein engine's strand walk as it was written on its own: each
    component from its smallest tail dart (smallest dart without tails)."""
    def opposite(d):
        return 4 * (d // 4) + (d % 4 + 2) % 4

    seen = set()
    out = []
    for start in range(4 * dd.n):
        if start in seen or (tails is not None and start not in tails):
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            seen.add(opposite(d))
            walk.append(d)
            d = opposite(dd.alpha[d])
        out.append(walk)
    return out


def _reference_components(dd):
    """Crossing-graph components by union-find."""
    parent = list(range(dd.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for d, e in enumerate(dd.alpha):
        parent[find(d // 4)] = find(e // 4)
    groups = {}
    for c in range(dd.n):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


def test_walks_and_components_match_references_on_random_pairings():
    rng = random.Random(2024)
    shapes = set()
    for _ in range(2000):
        n = rng.randint(1, 8)
        darts = list(range(4 * n))
        rng.shuffle(darts)
        alpha = [0] * (4 * n)
        for a, b in zip(darts[::2], darts[1::2]):
            alpha[a], alpha[b] = b, a
        dd = DoubleDiagram(alpha, n)
        assert dd.walks() == _reference_walks(dd)
        # an orientation: each component in a random direction
        tails = frozenset(
            d for walk in _reference_walks(dd)
            for d in (walk if rng.random() < 0.5 else [alpha[e] for e in walk]))
        assert dd.walks(tails) == _reference_walks(dd, tails)
        parts = dd.crossing_components()
        assert parts == _reference_components(dd)
        assert dd.is_connected() == (len(parts) == 1)
        shapes.add((len(parts) > 1, dd.num_components() > 1))
    assert shapes == {(False, False), (False, True), (True, True)}
