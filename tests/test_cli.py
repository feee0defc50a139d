import json
import os

import pytest

from tricross import HalfLaurent, fold_jones
from tricross.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VIOLATION,
    _run_records,
    main,
)
from conftest import T2_1


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def test_invariants_command(tmp_path):
    spd = tmp_path / "d.spd"
    spd.write_text(T2_1)
    out = tmp_path / "out.json"
    assert main(["invariants", str(spd), "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["alexander"] == "1*t^-1 + -1*t^0 + 1*t^1"
    assert rec["breadth"] == 2
    assert rec["monic"] is True
    assert rec["homfly"]


def test_invariants_command_on_the_unknot(tmp_path):
    spd = tmp_path / "o.spd"
    spd.write_text("sPD[O]")
    out = tmp_path / "out.json"
    assert main(["invariants", str(spd), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == {
        "jones": "1*t^0", "alexander": "1*t^0", "breadth": 0, "monic": True,
        "homfly": "1*a^0*z^0", "kauffman": "1*a^0*z^0"}


def test_invariants_of_each_witness_give_its_class_key(tmp_path):
    run = tmp_path / "run.jsonl"
    assert main(["classify", "--n", "3", "--out", str(run)]) == EXIT_OK
    classes = [r for r in read_jsonl(run) if r["type"] == "class"]
    assert len(classes) == 4
    for i, kc in enumerate(classes):
        spd, out = tmp_path / f"w{i}.spd", tmp_path / f"w{i}.json"
        spd.write_text(kc["witness"])
        assert main(["invariants", str(spd), "--out", str(out)]) == EXIT_OK
        rec = json.loads(out.read_text())
        assert fold_jones(HalfLaurent.parse(rec["jones"])) == kc["jones"]
        assert (rec["alexander"], rec["kauffman"]) == (kc["alexander"], kc["kauffman"])


def test_invariants_rejects_bare_projection(tmp_path):
    spd = tmp_path / "p.spd"
    spd.write_text("sPD[X[5,4,3,2,1,5],X[6,2,3,4,1,6]]")
    assert main(["invariants", str(spd)]) == EXIT_ERROR


def test_enumerate_command(tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(["enumerate", "--n", "2", "--out", str(out)]) == EXIT_OK
    records = read_jsonl(out)
    assert records[-1] == {"type": "count", "n": 2, "projections": 1}
    assert sum(1 for r in records if r["type"] == "projection") == 1


def test_enumerate_budget_partial_and_resume(tmp_path):
    out = tmp_path / "run.jsonl"
    token = tmp_path / "resume.txt"
    token.write_text("")
    code = main(["enumerate", "--n", "4", "--max-nodes", "500",
                 "--out", str(out), "--resume", str(token)])
    assert code == EXIT_PARTIAL
    records = read_jsonl(out)
    assert records[-1]["type"] == "resume"
    assert token.read_text().strip()  # token file rewritten for the next run


def test_enumerate_resume_keeps_partial_records(tmp_path):
    token = tmp_path / "resume.json"
    token.write_text("")
    legs = []
    # the n = 4 search tries about 70,000 pairings: two legs of 30,000 stop
    for leg, budget in enumerate((["--max-nodes", "30000"], ["--max-nodes", "30000"], [])):
        out = tmp_path / f"leg{leg}.jsonl"
        code = main(["enumerate", "--n", "4", "--out", str(out),
                     "--resume", str(token)] + budget)
        assert code == (EXIT_PARTIAL if budget else EXIT_OK)
        legs.append(out.read_text())
    partial = [{r["spd"] for r in map(json.loads, text.splitlines()) if r.get("partial")}
               for text in legs[:2]]
    assert partial[0] and partial[0] < partial[1]
    full = tmp_path / "full.jsonl"
    assert main(["enumerate", "--n", "4", "--out", str(full)]) == EXIT_OK
    assert legs[2] == full.read_text()


def test_enumerate_refuses_resume_file_for_other_n(tmp_path):
    token = tmp_path / "resume.json"
    token.write_text("")
    assert main(["enumerate", "--n", "3", "--max-nodes", "1000",
                 "--out", str(tmp_path / "a.jsonl"), "--resume", str(token)]) == EXIT_PARTIAL
    assert json.loads(token.read_text())["n"] == 3
    assert main(["enumerate", "--n", "4", "--out", str(tmp_path / "b.jsonl"),
                 "--resume", str(token)]) == EXIT_ERROR
    assert not (tmp_path / "b.jsonl").exists()


@pytest.mark.parametrize("token, partial", [
    (json.dumps({"n": 3, "fold_mirror": True}), []),
    (json.dumps([1, 2]), []),
    (json.dumps({"n": 3, "fold_mirror": True, "path": ["x"]}), []),
    (None, 5),
    (None, [[1.5, 0] + list(range(2, 18))]),
    # each dart paired with its neighbour: three crossings, each on its own
    (None, [[d ^ 1 for d in range(18)]]),
])
def test_enumerate_refuses_a_malformed_resume_file(tmp_path, capsys, token, partial):
    # the token's fields other than "partial" (None: those of the search's
    # start), with ``partial`` as its partial codes
    rec = json.loads(token or json.dumps({"n": 3, "fold_mirror": True, "path": []}))
    if isinstance(rec, dict):
        rec["partial"] = partial
    resume = tmp_path / "resume.json"
    resume.write_text(json.dumps(rec))
    assert main(["enumerate", "--n", "3", "--out", str(tmp_path / "a.jsonl"),
                 "--resume", str(resume)]) == EXIT_ERROR
    assert set(json.loads(capsys.readouterr().err)) == {"error"}


def test_enumerate_refuses_a_resume_file_of_the_old_format(tmp_path, capsys):
    # before tokens carried their partial codes, a resume file wrapped them
    token = json.dumps({"n": 4, "fold_mirror": True, "path": [1, 6]})
    resume = tmp_path / "resume.json"
    resume.write_text(json.dumps({"n": 4, "fold_mirror": True,
                                  "token": token, "partial": []}))
    out = tmp_path / "a.jsonl"
    assert main(["enumerate", "--n", "4", "--out", str(out),
                 "--resume", str(resume)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and set(json.loads(err)) == {"error"}
    assert not out.exists()


def _resumes_to_the_full_run(tmp_path, token, n):
    """``enumerate --n N`` resumed from ``token`` writes exactly what an
    uninterrupted run writes."""
    resume = tmp_path / "token.json"
    resume.write_text(token)
    resumed, full = tmp_path / "resumed.jsonl", tmp_path / "full.jsonl"
    assert main(["enumerate", "--n", str(n), "--out", str(resumed),
                 "--resume", str(resume)]) == EXIT_OK
    assert main(["enumerate", "--n", str(n), "--out", str(full)]) == EXIT_OK
    assert resumed.read_bytes() == full.read_bytes()


def test_enumerate_resumes_from_the_token_it_prints(tmp_path):
    out = tmp_path / "stop.jsonl"
    assert main(["enumerate", "--n", "4", "--max-nodes", "30000",
                 "--out", str(out)]) == EXIT_PARTIAL
    records = read_jsonl(out)
    assert records[-1]["type"] == "resume" and records[:-1]  # partial records kept
    _resumes_to_the_full_run(tmp_path, records[-1]["token"], 4)


def test_classify_search_stop_token_resumes_through_enumerate(tmp_path):
    out = tmp_path / "stop.jsonl"
    assert main(["classify", "--n", "4", "--max-nodes", "500",
                 "--out", str(out)]) == EXIT_PARTIAL
    stop = read_jsonl(out)[-1]
    assert (stop["type"], stop["n"], stop["stage"]) == ("resume", 3, "search")
    _resumes_to_the_full_run(tmp_path, stop["token"], 3)


def test_classify_and_report_roundtrip(tmp_path):
    run = tmp_path / "run.jsonl"
    assert main(["classify", "--n", "2", "--out", str(run)]) == EXIT_OK
    records = read_jsonl(run)
    assert {"type": "row", "n": 2, "projections": 1, "knots": 2} in records
    assert sum(1 for r in records if r["type"] == "class") == 2

    rep = tmp_path / "report.json"
    assert main(["report", str(run), "--out", str(rep)]) == EXIT_OK
    payload = json.loads(rep.read_text())
    assert payload["rows"] == [{"n": 2, "projections": 1, "knots": 2}]
    assert payload["conjecture"]["violated"] is False
    names = {v["name"] for v in payload["conjecture"]["classes"]}
    assert names == {"3_1", "4_1"}


def test_classify_n4_records_are_byte_identical_to_the_stored_copy(run_n4):
    """``tricross classify --n 4`` prints exactly ``tests/data/classify_n4.jsonl``."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "classify_n4.jsonl")
    with open(path) as f:
        assert "\n".join(_run_records(run_n4)) + "\n" == f.read()


def test_classify_budget_stop_names_n_and_stage(tmp_path, projection_clock):
    out = tmp_path / "run.jsonl"
    code = main(["classify", "--n", "3", "--budget-secs", "1.5", "--out", str(out)])
    assert code == EXIT_PARTIAL
    # the finished n = 2 census is written before the stop record, exactly
    # as an uninterrupted ``classify --n 2`` writes it
    records = read_jsonl(out)
    full = tmp_path / "n2.jsonl"
    assert main(["classify", "--n", "2", "--out", str(full)]) == EXIT_OK
    assert records[:-1] == read_jsonl(full)
    assert records[0] == {"type": "row", "n": 2, "projections": 1, "knots": 2}
    assert [(r["type"], r["c3"]) for r in records[1:-1]] == [("class", 2)] * 2
    assert records[-1] == {"type": "resume", "n": 3, "stage": "classify", "token": None}


@pytest.mark.parametrize("argv", [["invariants", "d.spd"], ["enumerate", "--n", "2"],
                                  ["classify", "--n", "2"], ["tikz", "d.spd"]])
def test_format_is_only_a_report_option(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--format", "csv"])
    assert exc_info.value.code == 2  # argparse's usage error


def test_report_formats(tmp_path):
    run = tmp_path / "run.jsonl"
    main(["classify", "--n", "2", "--out", str(run)])
    out = tmp_path / "t.csv"
    assert main(["report", str(run), "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert "c3" in out.read_text()
    out2 = tmp_path / "t.tex"
    assert main(["report", str(run), "--format", "latex", "--out", str(out2)]) == EXIT_OK
    assert "tabular" in out2.read_text()


def test_report_detects_violation(tmp_path):
    run = tmp_path / "run.jsonl"
    fake = [
        {"type": "row", "n": 2, "projections": 1, "knots": 1},
        # non-monic Alexander with breadth 2 at c3 = 2: strict bound fails
        {"type": "class", "c3": 2, "jones": "x",
         "alexander": "2*t^-1 + -3*t^0 + 2*t^1", "kauffman": "F",
         "witness": "w", "composite": False},
    ]
    run.write_text("\n".join(json.dumps(r) for r in fake))
    assert main(["report", str(run)]) == EXIT_VIOLATION


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_report_without_a_run_file_reports_an_empty_run(tmp_path, fmt):
    run = tmp_path / "empty.jsonl"
    run.write_text("")
    with_file, without = tmp_path / "a.out", tmp_path / "b.out"
    assert main(["report", str(run), "--format", fmt, "--out", str(with_file)]) == EXIT_OK
    assert main(["report", "--format", fmt, "--out", str(without)]) == EXIT_OK
    assert without.read_text() == with_file.read_text()
    if fmt == "json":
        assert json.loads(without.read_text()) == {
            "rows": [], "conjecture": {"violated": False, "classes": []}}


_CLASS = {"type": "class", "c3": 2, "jones": "x", "alexander": "1*t^-1 + -1*t^0 + 1*t^1",
          "kauffman": "F", "witness": "w", "composite": False}


@pytest.mark.parametrize("record", [
    {"type": "class", "c3": 2},
    {"type": "row", "n": 2},
    [1, 2],
    dict(_CLASS, alexander="garbage"),
    dict(_CLASS, alexander="0"),
    dict(_CLASS, alexander="1*t^1/2"),
    dict(_CLASS, c3="2"),
    dict(_CLASS, c3=True),
    dict(_CLASS, kauffman=5),
    dict(_CLASS, kauffman=None),
    dict(_CLASS, composite=0),
], ids=["class-without-jones", "row-without-projections", "not-an-object",
        "garbage-alexander", "zero-alexander", "half-power-alexander", "text-c3",
        "bool-c3", "number-kauffman", "null-kauffman", "number-composite"])
@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_report_refuses_a_malformed_run_file(tmp_path, capsys, record, fmt):
    run = tmp_path / "run.jsonl"
    run.write_text(json.dumps({"type": "row", "n": 2, "projections": 1, "knots": 1})
                   + "\n" + json.dumps(record) + "\n")
    assert main(["report", str(run), "--format", fmt]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert list(json.loads(err)) == ["error"]
    assert "line 2" in json.loads(err)["error"]


def test_tikz_command(tmp_path):
    spd = tmp_path / "d.spd"
    spd.write_text(T2_1)
    out = tmp_path / "pic.tex"
    assert main(["tikz", str(spd), "--out", str(out)]) == EXIT_OK
    assert "tikzpicture" in out.read_text()


def test_errors_are_exit_code_one(tmp_path):
    assert main(["invariants", str(tmp_path / "missing.spd")]) == EXIT_ERROR
    bad = tmp_path / "bad.spd"
    bad.write_text("not an spd code")
    assert main(["invariants", str(bad)]) == EXIT_ERROR
    assert main(["enumerate", "--n", "99"]) == EXIT_ERROR
