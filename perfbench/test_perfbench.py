"""Tests of the benchmark itself: a smoke run of every workload at n <= 3,
and for every output check a corrupted result that it must reject.

    python3 -m pytest -q perfbench
"""

import copy
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from worker import run_round  # noqa: E402

from tricross import (  # noqa: E402
    cli, enumerate_diagrams, enumerate_projections, enumerate_raw_shadows)
from tricross.laurent import HalfLaurent  # noqa: E402
from tricross.maps import TripleProjection  # noqa: E402
from tricross.moves import apply_m, find_m_sites  # noqa: E402


def small(name, tmp_path):
    if name == "invariants-n4":
        return workloads.Invariants(7, str(tmp_path), max_n=3,
                                    per_projection={2: 3, 3: 3})
    return workloads.WORKLOADS[name](7, str(tmp_path), max_n=3)


# ---------------------------------------------------------------------------
# smoke runs through the same code as the benchmark
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_plain_and_traced(name, tmp_path):
    w = small(name, tmp_path)
    ops = w.round_ops()
    latencies, failures = run_round(ops, None)
    assert len(latencies) == len(ops) and all(x > 0 for x in latencies)
    assert failures == [[]] * len(ops)

    tracer = Tracer()
    tracer.calibrate()
    latencies, failures = run_round(ops, tracer)
    assert failures == [[]] * len(ops)
    wall = sum(latencies)
    m = tracer.layer_metrics(1, wall)
    assert set(m) == set(LAYER_METRICS)
    # every span's time is attributed to exactly one layer, less the
    # calibrated cost of recording the spans
    assert m["trace.self_sum_s"] == pytest.approx(wall - m["trace.overhead_s"], rel=0.01)
    assert 0 < m["trace.overhead_s"] < 0.02 * wall
    if name == "census-n3":
        assert m["kauffman.calls"] == 3 + 8  # new (Jones, Alexander) pairs at n = 2, 3
        assert m["jones_batch.words"] == m["dedup.calls"] == 6 ** 2 + 2 * 6 ** 3
        assert 0 < m["search.prime_ratio"] < 1
        assert m["report.s"] > 0 and m["classify.self_s"] > 0
    elif name == "projections-n4":
        assert m["search.shadows"] > 0 and m["prime.calls"] == m["search.shadows"]
        assert m["kauffman.calls"] == 0
    else:
        assert m["jones_single.calls"] == m["bracket.calls"] == m["homfly.calls"] == 9
        assert m["kauffman.useful_ratio"] <= 1


def test_tracer_restores_every_function():
    import tricross

    before = (tricross.alexander, cli.main, TripleProjection.is_prime)
    with Tracer():
        assert tricross.alexander is not before[0]
    assert (tricross.alexander, cli.main, TripleProjection.is_prime) == before


def test_failed_check_fails_its_operation():
    ops = [lambda: (1, lambda out: []), lambda: (2, lambda out: ["wrong"]),
           lambda: (1 / 0, None)]
    _, failures = run_round(ops, None)
    assert failures[0] == [] and failures[1] == ["wrong"]
    assert "ZeroDivisionError" in failures[2][0]


def test_run_needs_the_sources(tmp_path):
    """Without ``src/`` beside it the command fails and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "census-n3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_the_command_reports():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def test_sample_is_seeded_and_distinct():
    projections = workloads.load_projections(3)
    a = workloads.draw_sample(projections, {2: 5, 3: 5}, random.Random(3))
    b = workloads.draw_sample(projections, {2: 5, 3: 5}, random.Random(3))
    assert a == b and len(a) == 15
    codes = {checks.canon.canonical_diagram_code(d) for d in a}
    assert len(codes) == 15


# ---------------------------------------------------------------------------
# census checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    d = tmp_path_factory.mktemp("census")
    records, report = str(d / "c.jsonl"), str(d / "r.json")
    assert cli.main(["classify", "--n", "3", "--out", records]) == 0
    assert cli.main(["report", records, "--out", report]) == 0
    with open(report) as f:
        return checks.read_jsonl(records), json.load(f)


def census_failures(records, report):
    return checks.census_failures(records, report, 3)


def classes_of(records):
    return [r for r in records if r["type"] == "class"]


def test_census_passes(census):
    assert census_failures(*census) == []


def bump_first_coefficient(text):
    head, rest = text.split("*", 1)
    return f"{int(head) + 1}*{rest}"


@pytest.mark.parametrize("corrupt, expect", [
    (lambda rec, rep: [r for r in rec if r["type"] == "row" and r["n"] == 3][0]
     .update(projections=3), "3 projections"),
    (lambda rec, rep: classes_of(rec)[0].update(composite=True), "unflagged classes"),
    (lambda rec, rep: rep["conjecture"].update(violated=True), "violation"),
    (lambda rec, rep: [v for v in rep["conjecture"]["classes"] if v["name"] == "6_1"][0]
     .update(name="5_2"), "two classes"),
    (lambda rec, rep: [v for v in rep["conjecture"]["classes"] if v["name"] == "6_1"][0]
     .update(name=None), "identified"),
    (lambda rec, rep: classes_of(rec)[1].update(
        jones=bump_first_coefficient(classes_of(rec)[1]["jones"])), "witness bracket"),
    (lambda rec, rep: classes_of(rec)[1].update(alexander="-1*t^-1 + 3*t^0"),
     "not symmetric"),
    (lambda rec, rep: classes_of(rec)[1].update(
        alexander="-1*t^-1 + 2*t^0 + -1*t^1"), "value 0 at t = 1"),
    (lambda rec, rep: classes_of(rec)[1].update(
        kauffman=bump_first_coefficient(classes_of(rec)[1]["kauffman"])),
     "F specialises"),
])
def test_census_check_rejects(census, corrupt, expect):
    records, report = copy.deepcopy(census)
    corrupt(records, report)
    failures = census_failures(records, report)
    assert any(expect in f for f in failures), failures


# ---------------------------------------------------------------------------
# projection checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reps():
    return {n: enumerate_projections(n) for n in (2, 3)}


def test_projections_pass(reps):
    rng = random.Random(1)
    assert all(checks.projection_failures(n, ps, rng) == [] for n, ps in reps.items())


def non_spherical(p):
    """Exchange the partners of two slots: still a connected pairing, but
    no longer a map on the sphere."""
    for s, t in itertools.combinations(range(6 * p.n), 2):
        alpha = list(p.alpha)
        a, b = alpha[s], alpha[t]
        if {a, b} & {s, t}:
            continue
        alpha[s], alpha[t], alpha[a], alpha[b] = b, a, t, s
        q = TripleProjection(alpha, p.n)
        if q.is_connected() and checks.face_count(q) != 2 * p.n + 2:
            return q
    raise AssertionError("every exchange keeps the map spherical")


def moved(p):
    """A projection one M1/M2 move away from ``p`` with another code."""
    code = checks.canon.canonical_projection_code(p)
    for site in find_m_sites(p):
        q = apply_m(p, site)
        if checks.canon.canonical_projection_code(q) != code:
            return q
    raise AssertionError("no move changes the code")


def first_composite(n):
    return next(p for p in enumerate_raw_shadows(n) if not p.is_prime())


@pytest.mark.parametrize("corrupt, expect", [
    (lambda ps: ps[:1], "1 projections"),
    (lambda ps: [first_composite(3), ps[1]], "is not prime"),
    (lambda ps: [non_spherical(ps[0]), ps[1]], "Euler characteristic"),
    (lambda ps: [ps[0], checks.relabel(ps[0], random.Random(2))],
     "share a canonical code"),
    (lambda ps: [ps[0], moved(ps[0])], "move joins"),
])
def test_projection_check_rejects(reps, corrupt, expect):
    failures = checks.projection_failures(3, corrupt(list(reps[3])), random.Random(1))
    assert any(expect in f for f in failures), failures


def test_projection_check_rejects_label_dependent_codes(reps, monkeypatch):
    monkeypatch.setattr(checks.canon, "canonical_projection_code",
                        lambda p, fold_mirror=True: p.alpha)
    failures = checks.projection_failures(3, reps[3], random.Random(1))
    assert any("relabelling changes" in f for f in failures), failures


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def knot_values():
    """Invariants of the first diagram at n = 2 that is not an unknot."""
    p = enumerate_projections(2)[0]
    for d in enumerate_diagrams(p):
        values = workloads.Invariants._invariants(d)
        if values["jones_triple"] != HalfLaurent.one():
            return values


def bump(poly):
    """The same polynomial with its first coefficient raised by one."""
    coeffs = dict(poly.coeffs)
    key = min(coeffs)
    coeffs[key] += 1
    return type(poly)(coeffs)


def test_invariants_pass(knot_values):
    assert checks.invariant_failures(knot_values) == []


@pytest.mark.parametrize("key, expect", [
    ("jones_triple", "jones_triple and bracket_jones differ"),
    ("bracket_jones", "jones_triple and bracket_jones differ"),
    ("homfly", "HOMFLY does not specialise to the Jones"),
    ("homfly", "HOMFLY does not specialise to the Alexander"),
    ("alexander", "HOMFLY does not specialise to the Alexander"),
    ("alexander", "not symmetric"),
    ("alexander", "at t = 1"),
    ("kauffman_f", "Kauffman F"),
])
def test_invariant_check_rejects(knot_values, key, expect):
    values = dict(knot_values, **{key: bump(knot_values[key])})
    failures = checks.invariant_failures(values)
    assert any(expect in f for f in failures), failures
