import json

import pytest

from tricross import (
    SpdSyntaxError,
    TripleDiagram,
    TripleProjection,
    parse_spd,
    serialize_spd,
)
from tricross.spd import to_json
from conftest import T2_1, T2_2


def test_parse_diagram_fixture():
    d = parse_spd(T2_1)
    assert isinstance(d, TripleDiagram)
    assert d.n == 2
    assert list(d.heights) == ["TMB", "TMB"]


def test_parse_projection_without_heights():
    p = parse_spd("sPD[X[5,4,3,2,1,5],X[6,2,3,4,1,6]]")
    assert isinstance(p, TripleProjection)
    assert p.n == 2


def test_roundtrip_diagram_and_projection():
    for text in (T2_1, T2_2):
        d = parse_spd(text)
        assert parse_spd(serialize_spd(d)) == d
        p = d.projection
        assert parse_spd(serialize_spd(p)) == p


def test_serialize_is_normal_form():
    # serialization relabels edges canonically, so it is idempotent
    once = serialize_spd(parse_spd(T2_1))
    assert serialize_spd(parse_spd(once)) == once


@pytest.mark.parametrize("bad", [
    "",                                           # empty
    "sPD[]",                                      # no crossings
    "sPD[X[1,2,3,4,5]]",                          # five labels
    "sPD[X[1,1,2,2,3,4|TMB]]",                    # label 3 appears once
    "sPD[X[5,4,3,2,1,5|TMM],X[6,2,3,4,1,6|TMB]]", # bad height word
    "sPD[X[5,4,3,2,1,5|TMB],X[6,2,3,4,1,6]]",     # mixed heights/none
    "PD[X[1,2,2,1,3,3]]",                         # wrong prefix
    # empty labels: a trefoil's labels with one comma too many
    "sPD[X[,5,4,3,2,1,5|TMB],X[6,2,3,4,1,6|TMB]]",  # leading comma
    "sPD[X[5,4,,3,2,1,5|TMB],X[6,2,3,4,1,6|TMB]]",  # doubled comma
    "sPD[X[5,4,3,2,1,5|TMB],X[6,2,3,4,1,6,|TMB]]",  # trailing comma
    "sPD[X[5,4,3,2,1,5,],X[6,2,3,4,1,6]]",          # trailing, no heights
])
def test_syntax_errors(bad):
    with pytest.raises(SpdSyntaxError):
        parse_spd(bad)


def test_to_json_contains_structure():
    obj = json.loads(to_json(parse_spd(T2_1)))
    assert obj["kind"] == "diagram"
    assert obj["n"] == 2
    assert len(obj["pairing"]) == 12
    assert [c["heights"] for c in obj["crossings"]] == ["TMB", "TMB"]
    assert parse_spd(obj["spd"]) == parse_spd(T2_1)
