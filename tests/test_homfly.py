import pytest

from tricross import (
    BudgetError,
    DoubleDiagram,
    bracket_jones,
    convert_to_double,
    homfly,
    kauffman_f,
    parse_spd,
    rational_knot_pd,
)
from tricross.homfly import DELTA, _Homfly
from tricross.kauffman import _Kauffman
from tricross.laurent import Laurent2
from conftest import PD_FIG8, PD_KINK, PD_TREFOIL, T2_1, T2_2


def test_unknot_and_kink():
    assert homfly(DoubleDiagram.unknot()) == Laurent2.one()
    assert homfly(DoubleDiagram.from_pd(PD_KINK)) == Laurent2.one()


def test_jones_specialization_matches_bracket():
    for pd in (PD_TREFOIL, PD_FIG8, rational_knot_pd((3, 2)),
               rational_knot_pd((4, 2))):
        dd = DoubleDiagram.from_pd(pd)
        assert homfly(dd).substitute_jones() == bracket_jones(dd)


def test_jones_specialization_on_triple_fixtures():
    for text in (T2_1, T2_2):
        dd = convert_to_double(parse_spd(text))
        assert homfly(dd).substitute_jones() == bracket_jones(dd)


def test_trefoil_value_up_to_mirror():
    # P(3_1) = -a^-4 + a^-2 z^2 + 2 a^-2 (right-handed convention)
    want = Laurent2({(-4, 0): -1, (-2, 2): 1, (-2, 0): 2})
    got = homfly(DoubleDiagram.from_pd(PD_TREFOIL))
    assert got in (want, want.mirror())


def test_fig8_value_is_amphichiral():
    want = Laurent2({(2, 0): 1, (0, 0): -1, (-2, 0): 1, (0, 2): -1})
    got = homfly(DoubleDiagram.from_pd(PD_FIG8))
    assert got == want
    assert got == got.mirror()


@pytest.mark.parametrize("invariant, engine", [(homfly, _Homfly), (kauffman_f, _Kauffman)],
                         ids=["homfly", "kauffman_f"])
def test_budget_error_raised(invariant, engine, monkeypatch):
    dd = convert_to_double(parse_spd(T2_2))
    monkeypatch.setattr(engine, "max_nodes", 3)
    with pytest.raises(BudgetError, match=r"node budget \(3\)"):
        invariant(dd)


def _hopf():
    dd = DoubleDiagram.from_pd(rational_knot_pd((2,)))
    assert dd.num_components() == 2
    return dd


def test_hopf_link_with_tails():
    # P(Hopf) = (a^-1 - a^-3) z^-1 + a^-1 z, up to mirror
    want = Laurent2({(-1, -1): 1, (-3, -1): -1, (-1, 1): 1})
    dd = _hopf()
    tails = frozenset(d for walk in dd.walks() for d in walk)
    assert homfly(dd, tails) in (want, want.mirror())


def test_hopf_link_without_tails_is_refused():
    with pytest.raises(ValueError):
        homfly(_hopf())


def test_split_union_of_two_trefoils():
    t = DoubleDiagram.from_pd(PD_TREFOIL)
    tails = t.orientations()[0]
    shift = 4 * t.n
    dd = DoubleDiagram(t.alpha + tuple(d + shift for d in t.alpha))
    both = tails | {d + shift for d in tails}
    assert homfly(dd, both) == DELTA * homfly(t, tails) ** 2
