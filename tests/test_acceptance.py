"""Acceptance gate: one test (and one printed verdict line) per criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose test lines are
the per-criterion pass/fail summary, and each test also prints an explicit
``criterion-NN: PASS/FAIL`` line.

Criterion 2 compares the census with the paper's count of *prime* knots,
so it counts, per c3, the classes that are not flagged composite.  Classes
are keyed by mirror-folded Jones, Alexander and Kauffman F: at c3 = 4 the
exhaustive run finds 27 classes (Jones and Alexander alone merge two pairs
of them, 25 keys), of which three carry exactly the invariants of connected
sums (3_1 # m3_1, 3_1 # 4_1, 4_1 # 4_1) on prime projections.  The 24
unflagged classes are the prime census.  See the class flags in
``classify`` output.
"""

import itertools
import json
import os
import random

import pytest

from tricross import (
    Budget,
    BudgetExceeded,
    TripleDiagram,
    TripleProjection,
    alexander,
    bracket_jones,
    canonical_projection_code,
    conjecture_report,
    convert_to_double,
    count_table,
    derive_triple_relation,
    enumerate_projections,
    enumerate_raw_shadows,
    find_jr_sites,
    apply_move,
    identify,
    jones_triple,
    jones_triple_batch,
    natural_orientations,
    parse_spd,
    serialize_spd,
)
from tricross.cli import EXIT_VIOLATION, main
from tricross.enumeration import HEIGHT_WORDS
from tricross.laurent import HalfLaurent


def verdict(num, ok, detail):
    line = f"criterion-{num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def projections_n4():
    return {n: enumerate_projections(n) for n in (2, 3, 4)}


def test_criterion_01_projection_counts(projections_n4):
    counts = [len(projections_n4[n]) for n in (2, 3, 4)]
    verdict(1, counts == [1, 2, 15],
            f"projection census for n=2,3,4 is {counts}, target [1, 2, 15]")


def test_criterion_02_knot_counts(run_n4):
    rows = count_table(run_n4)
    total = [k for (_, _, k) in rows]
    flagged = [
        sum(kc.composite for kc in run_n4.classes.values() if kc.c3 == n)
        for (n, _, _) in rows]
    prime = [t - f for t, f in zip(total, flagged)]
    verdict(
        2, prime == [2, 2, 24],
        f"prime knot census for c3=2,3,4 is {prime}, target [2, 2, 24]; "
        f"classes keyed by folded Jones, Alexander and Kauffman F number "
        f"{total}, of which {flagged} are flagged composite (Jones, "
        f"Alexander, HOMFLY, Kauffman F and S4-quotient counts match "
        f"3_1#m3_1, 3_1#4_1, 4_1#4_1)")


# The resume token of the n = 5 search stopped at Budget(max_nodes=1_121_919),
# a few seconds in and thirteen pairings before the first prime shadow
# (the 4,126th shadow; no earlier stop has a partial code to keep).  A change
# to the search order moves that shadow: re-derive the token then.
N5_TOKEN_BEFORE_FIRST_PRIME = (
    '{"n": 5, "fold_mirror": true, '
    '"path": [1, 6, 9, 12, 17, 16, 18, 11, 23, 22, 24, 26, 29]}')


def test_criterion_03_extended_n5_budgeted():
    if os.environ.get("TRICROSS_FULL_N5"):
        # the README's search count: 5,187 shadows, 999 of them prime
        shadows = list(enumerate_raw_shadows(5))
        assert (len(shadows), sum(p.is_prime() for p in shadows)) == (5187, 999)
        projections = enumerate_projections(5)
        verdict(3, len(projections) == 116,
                f"full n=5 projection census: {len(projections)}, target 116")
        return
    # default: exercise the budget/checkpoint contract where the search has
    # partial results: resume just before the first prime shadow (a token
    # with no partial codes), stop after a few, then resume from that stop's
    # token, which carries them
    token, legs = N5_TOKEN_BEFORE_FIRST_PRIME, []
    for max_nodes in (50, 100):
        with pytest.raises(BudgetExceeded) as exc_info:
            enumerate_projections(5, budget=Budget(max_nodes=max_nodes),
                                  resume_token=token)
        token = exc_info.value.resume_token
        assert token
        legs.append([tuple(c) for c in exc_info.value.partial])
    first, second = legs
    kept = bool(first) and set(first) < set(second)
    canonical = all(
        TripleProjection(code, 5).is_prime()
        and canonical_projection_code(TripleProjection(code, 5)) == code
        for code in second)
    verdict(3, kept and canonical,
            f"n=5 run is budget-gated: {len(first)} then {len(second)} prime "
            "partial codes kept across two resumed legs, each in canonical "
            "form (full census = 116 projections; marked partial)")


def test_criterion_04_small_class_names(run_n4, reference):
    names = {}
    for kc in run_n4.classes.values():
        if kc.c3 <= 3:
            names.setdefault(kc.c3, set()).add(identify(kc.fingerprint, reference))
    ok = names.get(2) == {"3_1", "4_1"} and names.get(3) == {"5_2", "6_1"}
    verdict(4, ok, f"c3=2 -> {sorted(names.get(2, []))}, "
                   f"c3=3 -> {sorted(names.get(3, []))}; "
                   "targets 3_1,4_1 and 5_2,6_1")


def test_criterion_05_oracle_equivalence(projections_n4):
    checked = 0
    for n in (2, 3):
        for p in projections_n4[n]:
            words_list = list(itertools.product(HEIGHT_WORDS, repeat=n))
            batch = jones_triple_batch(p, words_list)
            for words, v in zip(words_list, batch):
                d = TripleDiagram(p, list(words))
                assert v == bracket_jones(convert_to_double(d))
                checked += 1
    rng = random.Random(20240824)
    random_checked = 0
    per_proj = 1000 // len(projections_n4[4]) + 1
    for p in projections_n4[4]:
        words_list = [
            tuple(rng.choice(HEIGHT_WORDS) for _ in range(4))
            for _ in range(per_proj)
        ]
        batch = jones_triple_batch(p, words_list)
        for words, v in zip(words_list, batch):
            d = TripleDiagram(p, list(words))
            assert v == bracket_jones(convert_to_double(d))
            random_checked += 1
    verdict(5, checked == 36 + 2 * 216 and random_checked >= 1000,
            f"triple-crossing Jones == bracket of deconstruction on all "
            f"{checked} diagrams with n<=3 and {random_checked} random n=4 "
            f"diagrams")


def test_criterion_06_relation_derivation():
    rel = derive_triple_relation()
    plus = sorted(str(c) for c in rel.coefficient_multiset("x"))
    minus = sorted(str(c) for c in rel.coefficient_multiset("y"))
    want_plus = sorted(str(HalfLaurent({e: -1})) for e in (3, 2, 2, 1, 1))
    want_minus = sorted(str(HalfLaurent({e: -1})) for e in (-3, -2, -2, -1, -1))
    ok = plus == want_plus and minus == want_minus
    verdict(6, ok, "derived resolution coefficients are "
                   "{-t^3/2, -t, -t, -t^1/2, -t^1/2} and the t -> 1/t mirror")


def test_criterion_07_conjecture(run_n4, reference, tmp_path):
    report = conjecture_report(list(run_n4.classes.values()), reference)
    weak_ok = all(v.weak_bound_holds for v in report.verdicts)
    strict_ok = not report.violated
    # the dedicated exit code fires on a (synthetic) violation
    bad_run = tmp_path / "bad.jsonl"
    bad_run.write_text(json.dumps({
        "type": "class", "c3": 2, "jones": "x",
        "alexander": "2*t^-1 + -3*t^0 + 2*t^1", "kauffman": "F",
        "witness": "w", "composite": False}))
    exit_ok = main(["report", str(bad_run)]) == EXIT_VIOLATION
    verdict(7, strict_ok and weak_ok and exit_ok,
            f"all {len(report.verdicts)} classes satisfy c3 >= breadth and "
            "every non-monic class satisfies c3 > breadth strictly; "
            "violations exit with the dedicated code")


def test_criterion_08_natural_orientations(projections_n4):
    checked = 0
    for n in (2, 3, 4):
        for p in projections_n4[n]:
            # orientations depend only on the projection, so one height
            # assignment per projection is exhaustive over diagrams
            d = TripleDiagram(p, ["TMB"] * n)
            assert len(natural_orientations(d)) == 2
            checked += 1
    verdict(8, checked == 18,
            f"every enumerated projection (n<=4, {checked} total) admits "
            "exactly 2 natural orientations; heights cannot change this")


def test_criterion_09_move_preservation(projections_n4):
    applications = 0
    for n in (2, 3):
        for p in projections_n4[n]:
            for words in itertools.product(HEIGHT_WORDS, repeat=n):
                d = TripleDiagram(p, list(words))
                v = None
                for site in find_jr_sites(d):
                    if v is None:
                        v = jones_triple(d)
                    d2 = apply_move(d, site)
                    assert jones_triple(d2) == v
                    applications += 1
        if applications >= 100:
            break
    verdict(9, applications >= 100,
            f"{applications} J_R/J_R' applications all preserve Jones")


def test_criterion_10_property_suites(run_n4, projections_n4):
    # Euler characteristic on every enumerated projection
    for n in (2, 3, 4):
        for p in projections_n4[n]:
            assert p.n - 3 * p.n + len(p.faces()) == 2
    # Alexander symmetry + value 1 at t=1, and sPD round-trip, on all
    # classified witnesses
    for kc in run_n4.classes.values():
        d = parse_spd(kc.witness_spd)
        assert parse_spd(serialize_spd(d)) == d
        cs = alexander(convert_to_double(d)).int_coeffs()
        assert cs == {-e: c for e, c in cs.items()}
        assert sum(cs.values()) == 1
    # mirror involution at projection level
    from tricross import canonical_projection_code
    from tricross.maps import TripleProjection
    for p in projections_n4[3]:
        refl = lambda d_: 6 * (d_ // 6) + (6 - d_ % 6) % 6
        alpha = [0] * (6 * p.n)
        for d_ in range(6 * p.n):
            alpha[refl(d_)] = refl(p.alpha[d_])
        m = TripleProjection(alpha, p.n)
        assert canonical_projection_code(p, True) == canonical_projection_code(m, True)
    verdict(10, True,
            "Euler characteristic, Alexander symmetry/normalization, sPD "
            "round-trip, and mirror folding verified on all enumerated "
            "objects (canonical-code completeness vs brute force is covered "
            "in test_canon)")
