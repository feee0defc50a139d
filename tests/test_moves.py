import pytest

from tricross import (
    JR,
    JR_PRIME,
    M1,
    M2,
    MoveSite,
    StaleSiteError,
    alexander,
    apply_jr,
    apply_jr_prime,
    apply_m,
    apply_move,
    convert_to_double,
    enumerate_projections,
    find_jr_sites,
    find_m_sites,
    jones_triple,
    parse_spd,
)
from tricross.enumeration import enumerate_raw_shadows
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


@pytest.mark.parametrize("fold_mirror", [True, False])
def test_m_sites_are_the_face_anchors(fold_mirror):
    anchors = 0
    for n in (1, 2, 3):
        for p in enumerate_raw_shadows(n, fold_mirror=fold_mirror):
            expected = {site for site in _face_anchors(p)
                        if _slide_projection(p, site.crossing, site.slot) is not None}
            sites = find_m_sites(p)
            assert len(sites) == len(set(sites))
            assert set(sites) == expected
            anchors += len(sites)
    assert anchors > 0


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


@pytest.mark.parametrize("apply, kind", [(apply_jr, JR), (apply_jr_prime, JR_PRIME)])
@pytest.mark.parametrize("crossing,slot", [(2, 0), (-1, 0), (0, 6), (0, -1)])
def test_jr_move_site_out_of_range_is_stale(apply, kind, crossing, slot):
    with pytest.raises(StaleSiteError):
        apply(parse_spd(T2_1), MoveSite(kind, crossing, slot))


def test_jr_moves_preserve_invariants_on_two_crossing_diagrams():
    import itertools

    from tricross import TripleDiagram
    from tricross.enumeration import HEIGHT_WORDS

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
    import itertools

    from tricross import TripleDiagram
    from tricross.enumeration import HEIGHT_WORDS

    p = parse_spd(T2_1).projection
    seen = set()
    for words in itertools.product(HEIGHT_WORDS, repeat=2):
        d = TripleDiagram(p, list(words))
        for site in find_jr_sites(d):
            seen.add(site.kind)
            if site.kind == "JR":
                assert apply_jr(d, site).n == d.n
            else:
                assert apply_jr_prime(d, site).n == d.n
    assert seen == {"JR", "JR'"}
