import csv
import io
import json
import os
from dataclasses import replace

import pytest

from tricross import (
    DiagramError,
    DoubleDiagram,
    IntLaurent,
    KnotClass,
    alexander,
    braid_closure_pd,
    bracket_jones,
    conjecture_report,
    convert_to_double,
    emit_table,
    emit_tikz,
    identify,
    kauffman_f,
    parse_spd,
    rational_knot_pd,
)
from tricross.enumeration import fold_jones, fold_kauffman
from tricross.laurent import HalfLaurent
from tricross.tables import (
    APPLICABLE_HOLDS,
    APPLICABLE_VIOLATED,
    NOT_APPLICABLE,
    ReferenceKnot,
    continued_fraction,
    reference_rows,
)
from conftest import T2_1, W_41_41, W_41_41_SPLIT, W_51_SPLIT

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_reference_loads_and_validates(reference):
    assert len(reference) == 32
    names = [r.name for r in reference]
    assert len(set(names)) == 32
    for must in ("3_1", "4_1", "5_2", "6_1", "8_19", "8_20", "10_124"):
        assert must in names


def test_reference_fingerprints_distinct(reference):
    fps = [r.fingerprint for r in reference]
    assert len(set(fps)) == 32  # the whole key separates all reference knots


def test_continued_fraction():
    assert continued_fraction((3,)) == (3, 1)
    assert continued_fraction((2, 2)) == (5, 2)
    assert continued_fraction((2, 1, 1, 2)) == (13, 5)


def test_braid_closure_torus_knots():
    # (s1 s2)^4 closes to a knot with det 3 and 8 crossings (8_19)
    pd = braid_closure_pd(3, (1, 2) * 4)
    dd = DoubleDiagram.from_pd(pd)
    assert dd.num_components() == 1
    a = alexander(dd)
    det = abs(sum(c * (-1) ** abs(e) for e, c in a.int_coeffs().items()))
    assert det == 3


def _knot_class(dd, witness):
    return KnotClass(fold_jones(bracket_jones(dd)), str(alexander(dd)),
                     fold_kauffman(kauffman_f(dd)), 4, witness)


def test_identify_unique_ambiguous_none(reference):
    r31 = next(r for r in reference if r.name == "3_1")
    assert identify(r31.fingerprint, reference) == "3_1"
    assert identify(("no-such", "poly", "F"), reference) is None
    twin = replace(r31, name="fake", c2=9)
    assert identify(r31.fingerprint, reference + (twin,)) == "ambiguous:3_1,fake"


def test_identify_matches_the_whole_key(reference):
    r51 = next(r for r in reference if r.name == "5_1")
    assert identify(r51.fingerprint, reference) == "5_1"
    # an n = 4 diagram with 5_1's Jones and Alexander and another F
    dd = convert_to_double(parse_spd(W_51_SPLIT))
    split = _knot_class(dd, "w").fingerprint
    assert split[:2] == r51.fingerprint[:2] and split[2] != r51.kauffman
    assert identify(split, reference) is None
    for i in range(3):
        key = list(r51.fingerprint)
        key[i] = "other"
        assert identify(tuple(key), reference) is None


def test_conjecture_report_on_named_small_classes(reference):
    r31 = next(r for r in reference if r.name == "3_1")
    classes = [
        KnotClass(*r31.fingerprint, 2, "w"),                        # 3_1: monic
        KnotClass("x", "2*t^-1 + -3*t^0 + 2*t^1", "F", 3, "w"),     # 5_2-like
    ]
    rep = conjecture_report(classes, reference)
    verdicts = {v.verdict for v in rep.verdicts}
    assert NOT_APPLICABLE in verdicts
    assert APPLICABLE_HOLDS in verdicts
    assert not rep.violated


def test_conjecture_violation_detected(reference):
    bad = [KnotClass("x", "2*t^-1 + -3*t^0 + 2*t^1", "F", 2, "w")]  # c3 = breadth = 2
    rep = conjecture_report(bad, reference)
    assert rep.violated
    assert rep.verdicts[0].verdict == APPLICABLE_VIOLATED


def test_emit_table_formats(reference):
    classes = [KnotClass("x", "1*t^0", "F", 2, "w")]
    as_json = emit_table(classes, reference, "json")
    assert '"c3"' in as_json
    as_csv = emit_table(classes, reference, "csv")
    rows = list(csv.reader(io.StringIO(as_csv)))
    assert len(rows) >= 2
    as_latex = emit_table(classes, reference, "latex")
    assert "\\begin{tabular}" in as_latex
    with pytest.raises(DiagramError):
        emit_table(classes, reference, "yaml")


@pytest.mark.parametrize("split,partner", [
    (W_51_SPLIT, DoubleDiagram.from_pd(rational_knot_pd((5,)))),
    (W_41_41_SPLIT, W_41_41),
], ids=["5_1", "4_1#4_1"])
def test_emit_table_kauffman_column_separates_split_keys(reference, split, partner):
    # the two classes share Jones and Alexander; only the F column tells them
    # apart once the name and witness columns are set aside
    if isinstance(partner, str):
        partner = convert_to_double(parse_spd(partner))
    classes = [_knot_class(convert_to_double(parse_spd(split)), "w"),
               _knot_class(partner, "w")]
    fs = {kc.kauffman_folded for kc in classes}
    assert len(fs) == 2
    records = [json.loads(line) for line in
               emit_table(classes, reference, "json").splitlines()]
    assert {r["kauffman"] for r in records} == fs
    rows = list(csv.DictReader(io.StringIO(emit_table(classes, reference, "csv"))))
    assert {r["kauffman"] for r in rows} == fs
    assert len({(r["jones"], r["alexander"]) for r in rows}) == 1
    latex = emit_table(classes, reference, "latex").splitlines()[2:4]
    assert {f for f in fs for line in latex if f"${f}$" in line} == fs
    assert len({line.split(" & ", 2)[2] for line in latex}) == 2


def test_emit_tikz_colors_and_structure():
    tikz = emit_tikz(parse_spd(T2_1))
    assert "\\begin{tikzpicture}" in tikz and "\\end{tikzpicture}" in tikz
    assert "green" in tikz and "red" in tikz  # bottom and top strands


def test_reference_rows_regenerate_consistently(reference):
    """The rows computed from the constructions equal, field for field, the
    copy stored under ``tests/data``; they are computed once per process."""
    with open(os.path.join(DATA, "reference_knots.csv"), newline="") as f:
        stored = tuple(
            ReferenceKnot(r["name"], int(r["c2"]), bool(int(r["alternating"])),
                          r["jones"], r["alexander"], r["kauffman"])
            for r in csv.DictReader(f))
    assert reference == stored
    assert reference_rows() is reference
