"""Exhaustive enumeration of triple-crossing projections and knot classes.

The generator backtracks over edge pairings of ``n`` six-valent vertices:

* crossings are activated in discovery order and each is first entered at its
  slot 0, which quotients away vertex relabelings and rotations;
* a pairing is accepted only while the faces still to close can reach the
  spherical total ``2n + 2``: with ``rem`` pairings left and ``c`` open face
  walks, at most ``rem + min(c, 2 rem - c)`` more faces close (the Euler
  formula for hypermaps, Walsh 1975); where every pairing left must close
  two faces, the first unpaired dart has one possible partner, the end of
  its open face walk, and only that pairing is tried;
* a pairing that closes a strand component early is rejected, so every
  completed shadow is a knot projection (one closed curve);
* a pairing after which the labeling can no longer be the canonical one is
  rejected (orderly generation, Read 1978, Faradzev 1978), so the search
  yields one shadow per isomorphism class, already in canonical form.

Survivors are filtered to prime shadows and then grouped into orbits of the
M1/M2 slides; one canonical representative per orbit is kept, giving the
census counts 1, 2, 15, 116 for n = 2..5.

Long runs honour a wall-clock budget: on expiry a ``BudgetExceeded`` error
names the n and the stage of the stop and, in the search, carries the partial
results and a resume token (the decision path and the partial codes), which
``enumerate_projections`` accepts to continue the search.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from .alexander import alexander
from .canon import (
    _read_trace,
    canonical_diagram_code,
    canonical_form,
    canonical_projection_code,
)
from .jones import jones_triple_batch
from .kauffman import kauffman_f
from .laurent import HalfLaurent, IntLaurent, Laurent2
from .maps import DiagramError, InternalConsistencyError, TripleDiagram, TripleProjection
from .moves import apply_m, find_m_sites
from .spd import serialize_spd
from .tangle import convert_to_double

HEIGHT_WORDS = tuple("".join(w) for w in itertools.permutations("TMB"))


@dataclass
class Budget:
    wall_secs: Optional[float] = None
    max_nodes: Optional[int] = None


class BudgetExceeded(RuntimeError):
    """Raised when a budget expires at crossing count ``n`` in ``stage``
    (``"search"`` or ``"classify"``); carries partial results and, for a stop
    in the search, a resume token: the JSON object ``{"n", "fold_mirror",
    "path", "partial"}``, the whole state that ``enumerate_projections``
    resumes from.  A stop inside ``classify`` also carries the
    ``ClassifyRun`` of the n's finished before it as ``run``."""

    run: Optional["ClassifyRun"] = None

    def __init__(self, message: str, partial: list, resume_token: Optional[str],
                 n: int, stage: str) -> None:
        super().__init__(f"{message} at n = {n} in the {stage} stage")
        self.partial = partial
        self.resume_token = resume_token
        self.n = n
        self.stage = stage


def _read_token(token: Optional[str], n: int,
                fold_mirror: bool) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The decision path and the partial codes of a resume token of this
    search; a token without ``"partial"`` has none."""
    if not token:
        return [], []
    try:
        rec = json.loads(token)
    except (TypeError, ValueError):
        rec = None
    path = rec.get("path") if isinstance(rec, dict) else None
    if not (isinstance(path, list) and all(type(e) is int for e in path)):
        raise DiagramError("the resume token holds no decision path")
    if (rec.get("n"), rec.get("fold_mirror")) != (n, fold_mirror):
        raise DiagramError(f"the resume token is not one of this search at n = {n}, "
                           f"fold_mirror = {fold_mirror}")
    partial = rec.get("partial", [])
    if not (isinstance(partial, list)
            and all(isinstance(code, list) and all(type(e) is int for e in code)
                    for code in partial)):
        raise DiagramError("the partial codes of the resume token are not lists of ints")
    return path, [tuple(code) for code in partial]


def enumerate_raw_shadows(
    n: int,
    budget: Optional[Budget] = None,
    resume_token: Optional[str] = None,
    fold_mirror: bool = True,
) -> Iterator[TripleProjection]:
    """Yield connected spherical one-curve shadows with ``n`` triple points,
    one shadow per isomorphism class (up to reflection with ``fold_mirror``).

    Each shadow is yielded in its canonical labeling: its ``alpha`` equals
    ``canonical_projection_code(shadow, fold_mirror)``.

    A pairing is rejected when it closes a strand component early, when the
    faces still to close exceed ``rem + min(c, 2 rem - c)`` for the ``rem``
    pairings and ``c`` open face walks it leaves, or when no completion of
    it can be canonical.

    A resume token is the decision path: the partner chosen for the first
    unpaired dart at each committed pairing, then the pairing about to be
    tried at the stop.  The search tries pairings in increasing order of
    that path, and a resumed one yields exactly the shadows whose path is
    at or after the token's.  A replayed pairing this search rejects or
    skips ends the replay there, and the frame moves on to its next
    pairing; so a token written by a search that pruned less stays valid.
    """
    if n < 1:
        return
    N = 6 * n
    alpha = [-1] * N
    sigma = [(d - d % 6) + (d % 6 + 1) % 6 for d in range(N)]

    # Open-walk tables, kept for the unpaired darts.  A face walk of the
    # partial pairing steps from u to sigma[alpha[u]] and halts at an
    # unpaired dart: end[u] is where the walk from sigma[u] halts, start is
    # its inverse, and the cycles of end are the faces still open.  A strand
    # walk steps from u through its crossing to the opposite slot and on
    # along alpha while that slot is paired: mate[u] is the unpaired dart
    # where the walk from u halts, the other end of u's open strand.
    # Pairing d and e turns end into the first return of end o (d e) to the
    # darts left unpaired and joins the strands of d and e end to end; the
    # entries of d and e are left as they were, which is what undoes it.
    end = sigma[:]
    start = [(d - d % 6) + (d % 6 + 5) % 6 for d in range(N)]
    mate = [(d - d % 6) + (d % 6 + 3) % 6 for d in range(N)]

    def faces_closed(d: int, e: int) -> int:
        """Faces that pairing the unpaired darts d and e closes: one through
        d when e's open face walk ends at d, one through e when d's ends at
        e, and the one face they join when each walk ends where it began."""
        if (end[d], end[e]) == (d, e):
            return 1
        return (end[e] == d) + (end[d] == e)

    def faces_open_after(d: int, e: int, open_faces: int, delta: int) -> int:
        """Open faces after pairing d and e: end o (d e) splits the cycle of
        end through both darts or joins the two through one each, and loses
        the ``delta`` cycles that close."""
        u = end[d]
        while u != d and u != e:
            u = end[u]
        return open_faces + (1 if u == e else -1) - delta

    def join(d: int, e: int) -> None:
        """Pair d and e in the tables: a face walk that halted at one of
        them goes on along the other's walk to the next unpaired dart, and
        the far ends of their strands become each other's mates."""
        end_d, end_e = end[d], end[e]
        for u, v in ((start[d], end_e), (start[e], end_d)):
            if u != d and u != e:
                while v == d or v == e:
                    v = end_e if v == d else end_d
                end[u] = v
                start[v] = u
        mate[mate[d]] = mate[e]
        mate[mate[e]] = mate[d]

    def unjoin(d: int, e: int) -> None:
        """Undo ``join(d, e)``, which left the entries of d and e alone."""
        for u in (d, e):
            end[start[u]] = u
            start[end[u]] = u
            mate[mate[u]] = u

    # Orderly generation: a shadow built here equals its own trace from
    # dart 0 in sense +1, so it is canonical exactly when no other (root,
    # sense) trace is smaller.  Every trace that still ties alpha on the
    # positions fixed so far is carried along as a rival ``(sense, position,
    # order, base, dart)`` and read on against alpha as darts get paired; it
    # is dropped at its first larger position, and one that falls below
    # alpha rules out the whole subtree.
    senses = (1, -1) if fold_mirror else (1,)
    rivals = [(sense, 0, (root // 6,), (root % 6,), root)
              for root in range(N) for sense in senses if (root, sense) != (0, 1)]

    def still_tied(rivals: list, stop: int) -> Optional[list]:
        """The rivals that tie alpha up to position ``stop``; None when one
        is smaller."""
        tied = []
        for rival in rivals:
            sense, pos, order, base, dart = rival
            if alpha[dart] < 0:
                tied.append(rival)  # waits for its next dart
                continue
            value, pos, order, base, dart = _read_trace(
                alpha, alpha, stop, sense, pos, order, base)
            if value < 0:
                tied.append((sense, pos, order, base, dart))
            elif value < alpha[pos]:
                return None
        return tied

    start_time = time.monotonic()
    nodes = 0
    path: List[int] = []
    replay, _ = _read_token(resume_token, n, fold_mirror)

    def check_budget(e: int) -> None:
        if budget is None:
            return
        if budget.max_nodes is not None and nodes > budget.max_nodes:
            message = "node budget exhausted"
        elif (budget.wall_secs is not None and nodes % 512 == 0
              and time.monotonic() - start_time > budget.wall_secs):
            message = "time budget exhausted"
        else:
            return
        # the token ends with the pairing not yet tried, where a resumed
        # search picks up
        token = json.dumps({"n": n, "fold_mirror": fold_mirror, "path": path + [e]})
        raise BudgetExceeded(message, [], token, n, "search")

    def search(d: int, rivals: list, rem: int, to_close: int, open_faces: int,
               k: int) -> Iterator[TripleProjection]:
        """Pair the first unpaired dart d in every way the checks allow and
        search on below each pairing; ``rem`` pairings are left after it,
        ``to_close`` faces still to close, ``open_faces`` open, and the
        crossings reached so far are ``0 .. k-1``."""
        nonlocal nodes
        if to_close - 2 * rem == 2:
            # every pairing left must close two faces: d's only partner is
            # the end of its open face walk, and only if that walk ends at d
            a = end[d]
            cands = [a] if a != d and end[a] == d else []
        else:
            cands = [e for e in range(d + 1, 6 * k) if alpha[e] < 0]
            if k < n:
                cands.append(6 * k)  # the next crossing, entered at slot 0
        for e in cands:
            if replay:
                # the recorded pairing is popped when it is committed; a
                # later one here means it was rejected or skipped
                if e < replay[0]:
                    continue
                if e > replay[0]:
                    replay.clear()
            nodes += 1
            check_budget(e)
            if mate[d] == e and rem:
                continue  # would close a strand component early
            delta = faces_closed(d, e)
            if to_close < delta:
                continue
            # Euler bound.  The faces still to close are the cycles of
            # end' o alpha', for the table end' after this pairing (c' cycles)
            # and the pairing alpha' of its 2 rem darts still to come.  Each
            # of the k orbits of <end', alpha'> is a hypermap of genus >= 0,
            # so z(end') + z(alpha') + z(end' o alpha') <= 2 rem + 2k: at
            # most rem + 2k - c' faces close, and k <= min(c', rem) since
            # each orbit holds a cycle of end' and a pair of alpha'.
            open_after = faces_open_after(d, e, open_faces, delta)
            if to_close - delta > rem + min(open_after, 2 * rem - open_after):
                continue
            alpha[d] = e
            alpha[e] = d
            nd = alpha.index(-1) if rem else N
            tied = still_tied(rivals, nd)  # None: no completion is canonical
            if tied is not None and not rem:
                # the two face checks above left exactly 2n + 2 faces
                yield TripleProjection(list(alpha), n)
            elif tied is not None:
                join(d, e)
                path.append(e)
                if replay:
                    replay.pop(0)
                yield from search(nd, tied, rem - 1, to_close - delta, open_after,
                                  k + (e == 6 * k))
                # a replay still pending was rejected or skipped below this
                # pairing; the rest of the candidates here run in full
                replay.clear()
                path.pop()
                unjoin(d, e)
            alpha[d] = -1
            alpha[e] = -1

    yield from search(0, rivals, 3 * n - 1, 2 * n + 2, n, 1)


def enumerate_projections(
    n: int,
    fold_mirror: bool = True,
    budget: Optional[Budget] = None,
    resume_token: Optional[str] = None,
) -> List[TripleProjection]:
    """Canonical representatives of prime knot projections with ``n`` triple
    points, one per orbit of the M1/M2 slides (mirror images folded).

    A budget stop's token adds to the search's decision path the codes of
    the prime shadows found before the stop, and a resumed search starts
    from them; a code the search could not have yielded (not a spherical
    one-curve prime shadow in its canonical labeling) is refused with
    ``DiagramError``."""
    seen: Dict[Tuple[int, ...], TripleProjection] = {}
    for code in _read_token(resume_token, n, fold_mirror)[1]:
        p = TripleProjection(code, n)
        if not (p.is_spherical() and p.num_components() == 1 and p.is_prime()
                and canonical_projection_code(p, fold_mirror) == p.alpha):
            raise DiagramError(f"the partial code {list(code)} is not a canonical "
                               f"prime shadow at n = {n}, fold_mirror = {fold_mirror}")
        seen[p.alpha] = p
    try:
        for p in enumerate_raw_shadows(n, budget, resume_token, fold_mirror):
            if not p.is_prime():
                continue
            code = canonical_projection_code(p, fold_mirror)
            if code != tuple(p.alpha):
                raise InternalConsistencyError(
                    f"the search yielded a shadow that is not in canonical form at n = {n}")
            seen.setdefault(code, p)
    except BudgetExceeded as exc:
        exc.partial = list(seen)
        token = json.loads(exc.resume_token)
        token["partial"] = [list(code) for code in seen]
        exc.resume_token = json.dumps(token)
        raise
    return _m_orbit_representatives(seen, fold_mirror)


def _m_orbit_representatives(
    seen: Dict[Tuple[int, ...], TripleProjection], fold_mirror: bool
) -> List[TripleProjection]:
    codes = sorted(seen)
    index = {code: i for i, code in enumerate(codes)}
    parent = list(range(len(codes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for code in codes:
        p = seen[code]
        for site in find_m_sites(p):
            q = apply_m(p, site)
            qc = canonical_projection_code(q, fold_mirror)
            if qc in index:
                a, b = find(index[code]), find(index[qc])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    reps = sorted({codes[find(i)] for i in range(len(codes))})
    return [seen[code] for code in reps]


def _first_words(p: TripleProjection, fold_mirror: bool) -> Dict[Tuple, Tuple[str, ...]]:
    """The first height word on ``p``, in product order, of each class of
    ``canonical_diagram_code(d, fold_mirror)``, keyed by that code."""
    first: Dict[Tuple, Tuple[str, ...]] = {}
    for words in itertools.product(HEIGHT_WORDS, repeat=p.n):
        first.setdefault(canonical_diagram_code(TripleDiagram(p, words), fold_mirror), words)
    return first


def enumerate_diagrams(p: TripleProjection) -> List[TripleDiagram]:
    """All height assignments on a knot projection, deduplicated up to
    relabeling (mirror images kept distinct)."""
    first = _first_words(p, fold_mirror=False)
    return [TripleDiagram(p, first[code]) for code in sorted(first)]


ClassKey = Tuple[str, str, str]


@dataclass
class KnotClass:
    jones_folded: str
    alexander: str
    kauffman_folded: str
    c3: int
    witness_spd: str
    composite: bool = False

    @property
    def fingerprint(self) -> ClassKey:
        """(folded Jones, Alexander, folded Kauffman F)."""
        return (self.jones_folded, self.alexander, self.kauffman_folded)


def fold_jones(v: HalfLaurent) -> str:
    """Mirror-folded textual form: the smaller of V(t) and V(1/t)."""
    return min(str(v), str(v.invert_t()))


def fold_kauffman(f: Laurent2) -> str:
    """Mirror-folded textual form: the smaller of F(a, z) and F(1/a, z)."""
    return min(str(f), str(f.invert_a()))


@dataclass
class ClassifyRun:
    max_n: int
    projections_per_n: Dict[int, int] = field(default_factory=dict)
    kauffman_evals_per_n: Dict[int, int] = field(default_factory=dict)
    classes: Dict[ClassKey, KnotClass] = field(default_factory=dict)


def _project_classes(p: TripleProjection) -> Iterator[tuple]:
    """(folded Jones, Alexander) and diagram of each mirror class of
    diagrams on one projection: one record per class of
    ``canonical_diagram_code(d, fold_mirror=True)``, read off the class's
    first height word, in the order of those words.  Folded Jones and the
    normalised Alexander polynomial are mirror-invariant, so both run once
    per class."""
    words = list(_first_words(p, fold_mirror=True).values())
    for w, v in zip(words, jones_triple_batch(p, words)):
        d = TripleDiagram(p, w)
        yield (fold_jones(v), str(alexander(d))), d


def classify(max_n: int, budget: Optional[Budget] = None) -> ClassifyRun:
    """Enumerate diagrams for n = 2..max_n and group them into knot classes.

    The unknot (Jones and Alexander both 1) is discarded.  Classes are keyed
    by mirror-folded Jones, Alexander and mirror-folded Kauffman F; c3 is the
    smallest n realizing the class.  Jones and Alexander alone merge distinct
    knots: at n = 4 the 5_1 key and the 4_1 # 4_1 key each hold two classes
    that only F tells apart, giving 27 classes at c3 = 4 (24 unflagged).

    A diagram and its mirror image have the same folded Jones, Alexander
    and folded F (F's mirror is a -> 1/a), so the census reads one
    ``(pair, diagram)`` record per class of the mirror-folded diagram code
    from ``_project_classes``: Jones and Alexander, both read off the triple
    diagram, run 177 times for the 351 distinct diagrams at n <= 3.  A new
    class's witness is ``canonical_form`` of its record's diagram.  F runs
    on each record whose (Jones, Alexander) pair is first realized at the
    current n, and only those records are deconstructed: 257 evaluations at
    n = 4, for 497 of the 4,967 nontrivial diagrams, counted in
    ``kauffman_evals_per_n`` once the n finishes.  A diagram whose pair was
    already realized at a smaller n joins that pair's classes unrefined, so
    a second knot hiding behind an older pair is not detected; at n = 4 a
    sweep of F over all 4,967 finds none
    (``test_census_n4_kauffman_sweep_of_every_diagram``).

    Classes whose invariants factor as a product over smaller classes are
    flagged ``composite`` but stay in the census — flagged, never dropped.

    ``budget.wall_secs`` is one deadline for the whole call: the projection
    search of each n gets what is left of it, and the classification checks
    it before each projection.  ``BudgetExceeded`` names the n and the stage
    of the stop and carries, as ``run``, the classes of the n's finished
    before it.  A stop in the search carries the token of
    ``enumerate_projections`` at that n, which resumes that n's search
    through ``enumerate_projections`` (``tricross enumerate --n N
    --resume``); a stop in classification has no resume token.
    """
    run = ClassifyRun(max_n)
    unknot_pair = (fold_jones(HalfLaurent.one()), str(IntLaurent.from_int_coeffs({0: 1})))
    deadline = None
    if budget is not None and budget.wall_secs is not None:
        deadline = time.monotonic() + budget.wall_secs
    try:
        for n in range(2, max_n + 1):
            search_budget = budget
            if deadline is not None:
                search_budget = replace(budget, wall_secs=deadline - time.monotonic())
            projections = enumerate_projections(n, budget=search_budget)
            run.projections_per_n[n] = len(projections)
            older_pairs = {key[:2] for key in run.classes}
            evals = 0
            for p in projections:
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceeded("time budget exhausted", [], None, n, "classify")
                for pair, d in _project_classes(p):
                    if pair == unknot_pair or pair in older_pairs:
                        continue
                    key = pair + (fold_kauffman(kauffman_f(convert_to_double(d))),)
                    evals += 1
                    if key not in run.classes:
                        run.classes[key] = KnotClass(
                            *key, c3=n, witness_spd=serialize_spd(canonical_form(d)))
            run.kauffman_evals_per_n[n] = evals
    except BudgetExceeded as exc:
        # keep what the n's before the stop found
        run.projections_per_n.pop(exc.n, None)
        run.classes = {key: kc for key, kc in run.classes.items() if kc.c3 < exc.n}
        _mark_composites(run.classes)
        exc.run = run
        raise
    _mark_composites(run.classes)
    return run


def _folded_products(x, y, mirror, fold) -> set:
    """Folded forms of the products of ``x`` and ``y`` under all mirrorings."""
    return {fold(p * q) for p in (x, mirror(x)) for q in (y, mirror(y))}


def _mark_composites(classes: Dict[ClassKey, KnotClass]) -> None:
    """Flag each class whose key is the key of a connected sum of two classes.

    Jones, Alexander and Kauffman F are multiplicative under connected sum,
    and the diagram of a sum needs no more triple crossings than its parts
    together, so a class whose key is a sum's key, at a c3 sum no larger
    than its own, is indistinguishable from that connected sum by these
    invariants.  Such classes are flagged, never dropped or merged: the
    polynomials cannot prove compositeness, only fail to refute it.
    """
    items = list(classes.values())
    top = max((kc.c3 for kc in items), default=0)
    sum_c3: Dict[ClassKey, int] = {}
    for a, b in itertools.combinations_with_replacement(items, 2):
        c3 = a.c3 + b.c3
        if c3 > top:
            continue
        jones = _folded_products(HalfLaurent.parse(a.jones_folded),
                                 HalfLaurent.parse(b.jones_folded),
                                 HalfLaurent.invert_t, fold_jones)
        alex = str(IntLaurent.parse(a.alexander) * IntLaurent.parse(b.alexander))
        fs = _folded_products(Laurent2.parse(a.kauffman_folded),
                              Laurent2.parse(b.kauffman_folded),
                              Laurent2.invert_a, fold_kauffman)
        # Jones and F each under either mirroring, as each factors on its own
        for key in itertools.product(jones, (alex,), fs):
            sum_c3[key] = min(c3, sum_c3.get(key, c3))
    for kc in items:
        kc.composite = kc.fingerprint in sum_c3 and sum_c3[kc.fingerprint] <= kc.c3


def count_table(run: ClassifyRun) -> List[Tuple[int, int, int]]:
    """Rows (n, projections, new knot classes first realized at n).

    The knots column counts every nontrivial class, including the ones
    flagged ``composite`` (their per-class records carry the flag): 2, 2, 27
    for n = 2..4, of which 0, 0, 3 are flagged."""
    return [
        (n, run.projections_per_n[n], sum(kc.c3 == n for kc in run.classes.values()))
        for n in sorted(run.projections_per_n)
    ]
