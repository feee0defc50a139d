import itertools
import random

import pytest

from tricross import (
    JR,
    JR_PRIME,
    M1,
    M2,
    DiagramError,
    MoveSite,
    StaleSiteError,
    TripleDiagram,
    alexander,
    apply_m,
    apply_move,
    convert_to_double,
    enumerate_projections,
    find_jr_sites,
    find_m_sites,
    jones_triple,
    parse_spd,
)
from tricross.enumeration import HEIGHT_WORDS, enumerate_raw_shadows
from tricross.moves import _slide_projection
from conftest import T2_1, T2_2


def _face_anchors(p):
    """The reference rule: M1 anchors from monogon faces, M2 anchors from
    2-faces between distinct crossings.  A face's dart ``d`` after ``prev``
    sits in the sector of slots ``alpha[prev], d`` of its crossing."""
    sites = set()
    for face in p.faces():
        if len(face) == 1 or (len(face) == 2 and face[0] // 6 != face[1] // 6):
            kind = M1 if len(face) == 1 else M2
            for prev, d in zip(face[-1:] + face[:-1], face):
                sites.add(MoveSite(kind, d // 6, p.alpha[prev] % 6))
    return sites


def _assert_sites(sites, expected, kinds):
    """``sites`` are ``expected``, each once, by kind, then crossing, then slot."""
    assert set(sites) == expected
    assert sites == sorted(expected, key=lambda t: (kinds.index(t.kind), t.crossing, t.slot))


@pytest.mark.parametrize("fold_mirror", [True, False])
def test_m_sites_are_the_face_anchors(fold_mirror):
    """M1/M2 sites are the face anchors whose slide is a shadow; JR/JR'
    sites are the M1 sites whose sliding strand is on top/at the bottom:
    every height word at n <= 2, seeded words at n = 3."""
    rng = random.Random(3)
    anchors = {M1: 0, M2: 0, JR: 0, JR_PRIME: 0}
    for n in (1, 2, 3):
        for p in enumerate_raw_shadows(n, fold_mirror=fold_mirror):
            expected = {site for site in _face_anchors(p)
                        if _slide_projection(p, site.crossing, site.slot) is not None}
            _assert_sites(find_m_sites(p), expected, [M1, M2])
            for site in expected:
                anchors[site.kind] += 1
            words_list = (itertools.product(HEIGHT_WORDS, repeat=n) if n <= 2 else
                          [[rng.choice(HEIGHT_WORDS) for _ in range(n)] for _ in range(6)])
            for words in words_list:
                expected_j = {MoveSite(kind, s.crossing, s.slot)
                              for s in expected if s.kind == M1
                              for kind, level in ((JR, "T"), (JR_PRIME, "B"))
                              if words[s.crossing][(s.slot + 2) % 3] == level}
                _assert_sites(find_jr_sites(TripleDiagram(p, words)), expected_j, [JR, JR_PRIME])
                for site in expected_j:
                    anchors[site.kind] += 1
    assert all(anchors.values())


def test_m_sites_exist_on_two_crossing_projection():
    p = parse_spd(T2_1).projection
    sites = find_m_sites(p)
    assert sites, "the 2-crossing projection has monogons, so M1 sites"
    assert all(s.kind in (M1, M2) for s in sites)


def test_m_moves_are_involutions():
    p = parse_spd(T2_1).projection
    for site in find_m_sites(p):
        q = apply_m(p, site)
        assert q.n == p.n
        # the move undoes itself at the image site
        back = [apply_m(q, s) for s in find_m_sites(q)]
        assert any(r.alpha == p.alpha for r in back)


def test_m_move_stale_site_rejected():
    p2 = parse_spd(T2_1).projection
    p3 = enumerate_projections(3)[0]
    site = find_m_sites(p2)[0]
    with pytest.raises(StaleSiteError):
        apply_m(p3, site)


@pytest.mark.parametrize("kind", [M1, M2])
@pytest.mark.parametrize("crossing,slot", [(2, 0), (-1, 0), (0, 6), (0, -1)])
def test_m_move_site_out_of_range_is_stale(kind, crossing, slot):
    p = parse_spd(T2_1).projection
    with pytest.raises(StaleSiteError):
        apply_m(p, MoveSite(kind, crossing, slot))


@pytest.mark.parametrize("kind", [JR, JR_PRIME])
@pytest.mark.parametrize("crossing,slot", [(2, 0), (-1, 0), (0, 6), (0, -1)])
def test_jr_move_site_out_of_range_is_stale(kind, crossing, slot):
    with pytest.raises(StaleSiteError):
        apply_move(parse_spd(T2_1), MoveSite(kind, crossing, slot))


@pytest.mark.parametrize("case, error", [
    ("m_on_diagram", DiagramError), ("j_on_projection", DiagramError),
    ("unknown_kind", DiagramError), ("apply_m_of_j", DiagramError),
    ("jr_middle_strand", StaleSiteError), ("jr_prime_middle_strand", StaleSiteError),
])
def test_apply_move_refuses_a_site_of_another_kind_or_object(case, error):
    """An M site on a diagram, a J site on a projection, an unknown kind and
    a J site given to ``apply_m`` are refused as such; a J site whose sliding
    strand is the middle one is stale."""
    d = parse_spd(T2_1)
    m1 = next(s for s in find_m_sites(d.projection) if s.kind == M1)
    c, s = m1.crossing, m1.slot
    middle = TripleDiagram(d.projection,
                           [next(w for w in HEIGHT_WORDS if w[(s + 2) % 3] == "M")] * d.n)
    apply, obj, site = {
        "m_on_diagram": (apply_move, d, m1),
        "j_on_projection": (apply_move, d.projection, MoveSite(JR, c, s)),
        "unknown_kind": (apply_move, d, MoveSite("M3", c, s)),
        "apply_m_of_j": (apply_m, d, MoveSite(JR, c, s)),
        "jr_middle_strand": (apply_move, middle, MoveSite(JR, c, s)),
        "jr_prime_middle_strand": (apply_move, middle, MoveSite(JR_PRIME, c, s)),
    }[case]
    with pytest.raises(DiagramError) as info:
        apply(obj, site)
    assert type(info.value) is error


def test_jr_moves_preserve_invariants_on_two_crossing_diagrams():
    p = parse_spd(T2_1).projection
    applications = 0
    for words in itertools.product(HEIGHT_WORDS, repeat=2):
        d = TripleDiagram(p, list(words))
        v = jones_triple(d)
        a = alexander(convert_to_double(d))
        for site in find_jr_sites(d):
            d2 = apply_move(d, site)
            applications += 1
            assert jones_triple(d2) == v
            assert alexander(convert_to_double(d2)) == a
    assert applications >= 10


def test_apply_jr_and_prime_dispatch():
    """A JR/JR' site slides the diagram's projection as the M1 site at its
    anchor does, and keeps every height word."""
    p = parse_spd(T2_1).projection
    seen = set()
    for words in itertools.product(HEIGHT_WORDS, repeat=2):
        d = TripleDiagram(p, list(words))
        for site in find_jr_sites(d):
            seen.add(site.kind)
            slid = apply_move(p, MoveSite(M1, site.crossing, site.slot))
            assert apply_move(d, site) == TripleDiagram(slid, d.heights)
    assert seen == {JR, JR_PRIME}
