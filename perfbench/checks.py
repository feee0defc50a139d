"""Output checks of the benchmark workloads.

Every check compares with the paper's counts or with a property the method
must have, never with a stored copy of earlier output.  A check returns a
list of failure messages; an empty list means the output passed.

The specialisations of F and of HOMFLY at a = 1, the face count and the
relabelling are written here from their definitions, so that those checks
do not rely on the package code whose output they judge.
"""

from __future__ import annotations

import itertools
import json
from math import comb
from typing import Dict, List, Mapping, Sequence

from tricross import canon, jones, tangle
from tricross.laurent import HalfLaurent, Laurent2
from tricross.maps import DiagramError, TripleDiagram, TripleProjection
from tricross.moves import apply_m, find_m_sites
from tricross.spd import parse_spd

# Counts from the paper: prime projections per n (mirror images and M1/M2
# orbits folded), prime knots per minimal triple-crossing number c3, and
# the knots realised at c3 = 2, 3.
PAPER_PROJECTIONS = {2: 1, 3: 2, 4: 15}
PAPER_PRIME_KNOTS = {2: 2, 3: 2, 4: 24}
PAPER_NAMES = {2: {"3_1", "4_1"}, 3: {"5_2", "6_1"}}

HEIGHT_WORDS = tuple("".join(w) for w in itertools.permutations("TMB"))


# ---------------------------------------------------------------------------
# polynomial helpers; exponent keys are in units of t^(1/2), as in HalfLaurent
# ---------------------------------------------------------------------------


def fold(v: HalfLaurent) -> str:
    """Mirror-folded text of a Jones polynomial: the smaller of V(t), V(1/t)."""
    return min(str(v), str(v.invert_t()))


def kauffman_to_jones(f: Laurent2) -> HalfLaurent:
    """F(a, z) at a = -t^(-3/4), z = t^(1/4) + t^(-1/4).

    Raises ``ValueError`` when a quarter power of ``t`` survives."""
    quarter: Dict[int, int] = {}
    for (ea, ez), c in f.coeffs.items():
        sign = -1 if ea % 2 else 1
        for j in range(ez + 1):
            e = -3 * ea + ez - 2 * j
            quarter[e] = quarter.get(e, 0) + sign * c * comb(ez, j)
    if any(v and e % 2 for e, v in quarter.items()):
        raise ValueError("specialisation leaves odd quarter powers of t")
    return HalfLaurent({e // 2: v for e, v in quarter.items() if v})


def homfly_to_alexander(p: Laurent2) -> HalfLaurent:
    """P(a, z) at a = 1, z = t^(1/2) - t^(-1/2)."""
    out: Dict[int, int] = {}
    for (_, ez), c in p.coeffs.items():
        for j in range(ez + 1):
            e = ez - 2 * j
            out[e] = out.get(e, 0) + c * (-1) ** j * comb(ez, j)
    return HalfLaurent({e: v for e, v in out.items() if v})


def alexander_failures(a: HalfLaurent, label: str) -> List[str]:
    """Alexander polynomials are symmetric under t -> 1/t with value 1 at t = 1."""
    out = []
    c = a.coeffs
    if any(c.get(-e) != v for e, v in c.items()):
        out.append(f"{label}: Alexander polynomial {a} is not symmetric")
    if sum(c.values()) != 1:
        out.append(f"{label}: Alexander polynomial {a} has value {sum(c.values())} at t = 1")
    return out


# ---------------------------------------------------------------------------
# combinatorial helpers
# ---------------------------------------------------------------------------


def face_count(p: TripleProjection) -> int:
    """Cycles of the face permutation d -> rotate(alpha(d)) on 6n darts."""
    seen = [False] * (6 * p.n)
    faces = 0
    for start in range(6 * p.n):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = True
            e = p.alpha[d]
            d = 6 * (e // 6) + (e % 6 + 1) % 6
    return faces


def relabel(obj, rng):
    """The same projection or diagram under a random crossing order and
    rotation of each crossing's slots."""
    if isinstance(obj, TripleDiagram):
        p, heights = obj.projection, obj.heights
    else:
        p, heights = obj, None
    n = p.n
    order = list(range(n))
    rng.shuffle(order)
    turn = [rng.randrange(6) for _ in range(n)]

    def new(d: int) -> int:
        c = d // 6
        return 6 * order[c] + (d % 6 - turn[c]) % 6

    alpha = [0] * (6 * n)
    for d, e in enumerate(p.alpha):
        alpha[new(d)] = new(e)
    q = TripleProjection(alpha, n)
    if heights is None:
        return q
    words = [""] * n
    for c, w in enumerate(heights):
        words[order[c]] = "".join(w[(k + turn[c]) % 3] for k in range(3))
    return TripleDiagram(q, words)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def read_jsonl(path: str) -> List[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def census_failures(records: Sequence[dict], report: Mapping, max_n: int) -> List[str]:
    """Checks on ``tricross classify`` records and the ``report`` JSON."""
    out: List[str] = []
    rows = {r["n"]: r for r in records if r.get("type") == "row"}
    classes = [r for r in records if r.get("type") == "class"]
    for n in range(2, max_n + 1):
        got = rows.get(n, {}).get("projections")
        if got != PAPER_PROJECTIONS[n]:
            out.append(f"n = {n}: {got} projections, the paper has {PAPER_PROJECTIONS[n]}")
        prime = sum(1 for k in classes if k["c3"] == n and not k["composite"])
        if prime != PAPER_PRIME_KNOTS[n]:
            out.append(f"c3 = {n}: {prime} unflagged classes, the paper has "
                       f"{PAPER_PRIME_KNOTS[n]}")
    conj = report.get("conjecture", {})
    if conj.get("violated") is not False:
        out.append("report finds a breadth-bound violation")
    names = [v["name"] for v in conj.get("classes", []) if v["name"]]
    if len(names) != len(set(names)):
        out.append(f"a name is given to two classes: {sorted(names)}")
    for c3, want in PAPER_NAMES.items():
        if c3 > max_n:
            continue
        got = {v["name"] for v in conj.get("classes", []) if v["c3"] == c3}
        if got != want:
            out.append(f"c3 = {c3}: identified {sorted(map(str, got))}, the paper has "
                       f"{sorted(want)}")
    for k in classes:
        out.extend(witness_failures(k))
    return out


def witness_failures(k: Mapping) -> List[str]:
    """A class record's witness, Jones, Alexander and F must agree."""
    label = f"class {k['jones']!r}"
    out = alexander_failures(HalfLaurent.parse(k["alexander"]), label)
    witness = parse_spd(k["witness"])
    v = jones.bracket_jones(tangle.convert_to_double(witness))
    if fold(v) != k["jones"]:
        out.append(f"{label}: witness bracket gives Jones {fold(v)!r}")
    if k.get("kauffman") is not None:
        try:
            fv = fold(kauffman_to_jones(Laurent2.parse(k["kauffman"])))
        except ValueError as exc:
            fv = str(exc)
        if fv != k["jones"]:
            out.append(f"{label}: F specialises to {fv!r}, not to the class Jones")
    return out


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def projection_failures(n: int, reps: Sequence[TripleProjection], rng) -> List[str]:
    """Checks on the output of ``enumerate_projections(n)``."""
    out: List[str] = []
    if len(reps) != PAPER_PROJECTIONS[n]:
        out.append(f"n = {n}: {len(reps)} projections, the paper has {PAPER_PROJECTIONS[n]}")
    codes = []
    for i, p in enumerate(reps):
        label = f"n = {n}, representative {i}"
        try:
            p.validate()
        except DiagramError as exc:
            out.append(f"{label} does not validate: {exc}")
        if p.n != n:
            out.append(f"{label} has {p.n} crossings")
        if not p.is_prime():
            out.append(f"{label} is not prime")
        chi = p.n - 3 * p.n + face_count(p)
        if chi != 2:
            out.append(f"{label} has Euler characteristic {chi}")
        code = canon.canonical_projection_code(p)
        codes.append(code)
        if canon.canonical_projection_code(relabel(p, rng)) != code:
            out.append(f"{label}: relabelling changes the canonical code")
    if len(set(codes)) != len(codes):
        out.append(f"n = {n}: two representatives share a canonical code")
    for i, p in enumerate(reps):
        others = set(codes[:i] + codes[i + 1:])
        for site in find_m_sites(p):
            if canon.canonical_projection_code(apply_m(p, site)) in others:
                out.append(f"n = {n}: an {site.kind} move joins representative {i} "
                           "to another")
    return out


# ---------------------------------------------------------------------------
# invariants of one diagram
# ---------------------------------------------------------------------------


def invariant_failures(values: Mapping) -> List[str]:
    """Checks on the invariant set of one diagram (see ``workloads``)."""
    out: List[str] = []
    v = values["jones_triple"]
    if values["bracket_jones"] != v:
        out.append("jones_triple and bracket_jones differ")
    p = values["homfly"]
    if p.substitute_jones() != v:
        out.append("HOMFLY does not specialise to the Jones polynomial")
    a = values["alexander"]
    if homfly_to_alexander(p) != a:
        out.append("HOMFLY does not specialise to the Alexander polynomial")
    try:
        if kauffman_to_jones(values["kauffman_f"]) != v:
            out.append("Kauffman F does not specialise to the Jones polynomial")
    except ValueError as exc:
        out.append(f"Kauffman F: {exc}")
    out.extend(alexander_failures(a, "diagram"))
    return out
