"""Jones polynomial machinery.

Two independent routes compute V(K):

* :func:`jones_triple` resolves every triple crossing directly into the five
  non-crossing matchings of its six ends, with per-matching coefficients
  produced symbolically by :func:`derive_triple_relation`.  The loop counts
  of the 5^n resolutions come from one depth-first pass that joins open
  paths three chords at a time (:func:`_state_loop_counts`).  The sum over
  the resolutions is a Kronecker contraction: the loop-count vector of the
  projection, packed into ints whose digits are wide enough for every
  coefficient (at most ``5^n 2^(3n - 1)``), is contracted one crossing at a
  time with the exponent row of its height word, and
  :func:`jones_triple_batch` shares the contractions of common word
  prefixes;
* :func:`bracket_jones` is the classical Kauffman bracket with writhe
  normalisation, evaluated on a deconstructed double diagram.  Its state
  sum, :func:`kauffman_bracket`, contracts the diagram one crossing at a
  time along a boundary, with one packed Laurent polynomial in A per
  group of partial states, and reads nothing but the diagram's gluing: it
  calls no tangle or skein code, and :func:`derive_triple_relation` does
  not call it.

Agreement of the two routes on every diagram is one of the package's core
acceptance checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .alexander import _balanced_digits
from .laurent import HalfLaurent
from .maps import (HEIGHT_WORDS, DiagramError, DoubleDiagram, TripleDiagram, TripleProjection,
                   _cycles)
from .tangle import local_tangle, local_writhe

Matching = FrozenSet[FrozenSet[int]]

# delta: the bracket value of an extra closed loop, -t^(1/2) - t^(-1/2)
LOOP_FACTOR = HalfLaurent({1: -1, -1: -1})


def _noncrossing_matchings() -> List[Matching]:
    """The five non-crossing perfect matchings of six cyclic points."""

    def rec(points: Tuple[int, ...]) -> List[List[Tuple[int, int]]]:
        if not points:
            return [[]]
        res = []
        a = points[0]
        for i in range(1, len(points)):
            b = points[i]
            inside = points[1:i]
            outside = points[i + 1:]
            for m1 in rec(inside):
                for m2 in rec(outside):
                    res.append([(a, b)] + m1 + m2)
        return res

    matchings = {
        frozenset(frozenset(p) for p in m) for m in rec(tuple(range(6)))
    }
    return sorted(matchings, key=lambda m: sorted(sorted(p) for p in m))


NONCROSSING: List[Matching] = _noncrossing_matchings()


def _slot_partners(m: Matching) -> Tuple[int, ...]:
    """Slot -> the slot a matching joins it to."""
    out = [0] * 6
    for s, t in (tuple(pair) for pair in m):
        out[s], out[t] = t, s
    return tuple(out)


# per matching index, its slot -> slot table
_PARTNERS = [_slot_partners(m) for m in NONCROSSING]


# ---------------------------------------------------------------------------
# Kauffman bracket oracle on double diagrams
# ---------------------------------------------------------------------------


# Each smoothing as (A-exponent, slot involution): the A smoothing joins
# slots (1,2) and (3,0), the 1/A smoothing (0,1) and (2,3).
_SMOOTHINGS = ((1, (3, 2, 1, 0)), (-1, (1, 0, 3, 2)))


def _contraction_order(alpha: Sequence[int], m: int) -> List[int]:
    """Crossings in the order they are contracted: next is the unplaced one
    with the most darts glued to placed crossings, lowest index on ties."""
    placed = [False] * m
    glued = [0] * m
    order = []
    for _ in range(m):
        c = max((u for u in range(m) if not placed[u]), key=lambda u: (glued[u], -u))
        placed[c] = True
        order.append(c)
        for d in range(4 * c, 4 * c + 4):
            glued[alpha[d] >> 2] += 1
    return order


def kauffman_bracket(dd: DoubleDiagram) -> Dict[int, int]:
    """Bracket polynomial; returns a map from A-exponent to coefficient.

    Smoothing convention for a crossing with the under-strand at slots 0, 2:
    the A smoothing joins darts (1,2) and (3,0), the 1/A smoothing joins
    (0,1) and (2,3).

    The 2^m states are summed by contraction along a boundary.  Crossings
    are added one at a time (:func:`_contraction_order`); the open ends are
    the placed darts whose ``alpha`` partner is not placed yet, and the
    partial states are grouped by how their arcs match the open ends up.
    Adding a crossing follows each arc of each of its smoothings through
    that matching; an arc that comes back to itself closes a loop.  The
    contraction reads only the diagram's gluing, not the triple-crossing
    relation, so it stays an independent check on :func:`jones_triple`.

    Each group carries one Laurent polynomial in A, the sum over its states
    of ``A^a delta^l`` for ``a`` the A-exponent and ``l`` the loops closed so
    far, with ``delta = -A^2 - A^-2``.  It is packed into one int by
    Kronecker substitution, the coefficient of ``A^e`` as the base-``2^bits``
    digit at place ``e + offset``: a smoothing shifts it by one place, and
    each loop that closes multiplies it by ``delta``, a shift-and-add.  A
    full state closes all its loops, at least one, so the sum is ``delta``
    times the bracket; dividing by ``delta = -A^-2 (A^4 + 1)`` is one exact
    integer division by ``2^(4 bits) + 1`` and a shift.

    Bounds: take the graph whose vertices are a state's loops and whose
    edges are the m crossings, each joining the loops through its two arcs.
    It has as many components as the diagram's crossing graph, ``k``, so a
    state has at most ``L = m + k`` loops (``m + 1`` for a knot diagram).
    Every coefficient is then at most ``2^m 2^L``, a sum of at most 2^m
    terms each bounded by the sum of the coefficients of ``delta^L`` in
    magnitude, and ``bits = m + L + 2`` keeps it below half the base, so
    the balanced digits of the result are exactly its coefficients.  Every
    exponent is at least ``-m - 2 L``, so with ``offset = m + 2 L`` no place
    is negative and every right shift is exact.  For a knot diagram this
    is ``2m + 3`` bits and an offset of ``3m + 2``.
    """
    m = dd.n
    if m == 0:
        return {0: 1}
    alpha = dd.alpha
    most_loops = m + len(dd.crossing_components())
    bits = m + most_loops + 2
    offset = m + 2 * most_loops
    placed = [False] * m
    # open ends, in the same order for every group
    frontier: List[int] = []
    # partner of each open end -> the group's packed polynomial
    groups: Dict[Tuple[int, ...], int] = {(): 1 << bits * offset}
    for c in _contraction_order(alpha, m):
        at = {e: i for i, e in enumerate(frontier)}
        kept = [i for i, e in enumerate(frontier) if alpha[e] >> 2 != c]
        fresh = [d for d in range(4 * c, 4 * c + 4)
                 if not placed[alpha[d] >> 2] and alpha[d] >> 2 != c]
        new_frontier = [frontier[i] for i in kept] + fresh
        new_at = {e: i for i, e in enumerate(new_frontier)}
        nxt: Dict[Tuple[int, ...], int] = {}
        for match, poly in groups.items():
            # where the strand leaving slot s outward arrives: another slot
            # of c (via[s]), or an open end that stays open (end[s])
            via: List[int] = [-1] * 4
            end: List[int] = [-1] * 4
            for s in range(4):
                d = 4 * c + s
                a = alpha[d]
                if a >> 2 == c:
                    via[s] = a & 3
                elif placed[a >> 2]:
                    e = match[at[a]]
                    if alpha[e] >> 2 == c:
                        via[s] = alpha[e] & 3
                    else:
                        end[s] = e
                else:
                    end[s] = d
            for a_step, inner in _SMOOTHINGS:
                partner = [match[i] for i in kept] + [0] * len(fresh)
                seen = [False] * 4
                for s in range(4):
                    if seen[s] or end[s] < 0:
                        continue
                    t = s
                    while True:
                        u = inner[t]
                        seen[t] = seen[u] = True
                        if end[u] >= 0:
                            break
                        t = via[u]
                    partner[new_at[end[s]]] = end[u]
                    partner[new_at[end[u]]] = end[s]
                value = poly << bits if a_step > 0 else poly >> bits
                for s in range(4):
                    if seen[s]:
                        continue
                    value = -((value << 2 * bits) + (value >> 2 * bits))
                    t = s
                    while not seen[t]:
                        u = inner[t]
                        seen[t] = seen[u] = True
                        t = via[u]
                key = tuple(partner)
                nxt[key] = nxt.get(key, 0) + value
        groups = nxt
        placed[c] = True
        frontier = new_frontier
    (value,) = groups.values()
    return _unpack_bracket(value, bits, offset)


def _unpack_bracket(value: int, bits: int, offset: int) -> Dict[int, int]:
    """The bracket from ``delta <D>`` packed at ``bits`` and ``offset``:
    ``delta = -A^-2 (A^4 + 1)``, so one exact division by ``2^(4 bits) + 1``
    leaves ``-A^-2 <D>``."""
    digits = _balanced_digits(value // ((1 << 4 * bits) + 1), 1 << bits)
    return {place - offset + 2: -v for place, v in digits.items()}


def _bracket_to_half_laurent(bracket: Dict[int, int], writhe: int) -> HalfLaurent:
    """Apply (-A)^(-3w) and substitute A = t^(-1/4)."""
    sign = -1 if (3 * writhe) % 2 else 1
    out: Dict[int, int] = {}
    for e, v in bracket.items():
        k = e - 3 * writhe
        if k % 2:
            raise DiagramError("bracket exponent not convertible to t^(1/2) powers")
        out[-k // 2] = out.get(-k // 2, 0) + sign * v
    return HalfLaurent(out)


def bracket_jones(dd: DoubleDiagram) -> HalfLaurent:
    """Jones polynomial of a knot diagram via the bracket oracle: the
    contracted :func:`kauffman_bracket`, times (-A)^(-3w), at A = t^(-1/4).
    Independent of the triple-crossing relation."""
    if dd.n == 0:
        return HalfLaurent.one()
    # orientations() refuses a link: the writhe of a knot is orientation-free
    w = dd.writhe(dd.orientations()[0])
    return _bracket_to_half_laurent(kauffman_bracket(dd), w)


# ---------------------------------------------------------------------------
# the triple-crossing skein relation
# ---------------------------------------------------------------------------


class TripleRelation:
    """Per-height-word resolution coefficients for one triple crossing.

    ``by_height[word][matching]`` is the (monomial) Jones coefficient of
    resolving a crossing with height word ``word`` into ``matching`` (a
    non-crossing perfect matching of the six boundary slots).
    ``class_of[word]`` is the chirality class: ``"x"`` when the coefficient
    exponents are positive, ``"y"`` for the mirror class.  Every coefficient
    is ``-t^(e/2)``; ``exponents[word]`` lists those ``e`` in the order of
    :data:`NONCROSSING`.
    """

    def __init__(self, by_height: Dict[str, Dict[Matching, HalfLaurent]]):
        self.by_height = by_height
        self.class_of: Dict[str, str] = {}
        self.exponents: Dict[str, List[int]] = {}
        for word, coeffs in by_height.items():
            table = []
            for m in NONCROSSING:
                (e2, v), = coeffs[m].coeffs.items()
                if v != -1:
                    raise DiagramError("relation coefficient is not -t^e")
                table.append(e2)
            self.exponents[word] = table
            exps = sorted(table)
            if exps == [1, 1, 2, 2, 3]:
                self.class_of[word] = "x"
            elif exps == [-3, -2, -2, -1, -1]:
                self.class_of[word] = "y"
            else:
                raise DiagramError(f"unexpected coefficient exponents {exps} for {word}")

    def coefficient_multiset(self, cls: str) -> List[HalfLaurent]:
        for word, c in self.class_of.items():
            if c == cls:
                return sorted(self.by_height[word].values(), key=lambda p: p.min_exp2())
        raise KeyError(cls)


def _tangle_bracket(word: str) -> Dict[Matching, Dict[int, int]]:
    """Bracket expansion of the deconstructed triple crossing.

    Walks the 12-dart table of :func:`local_tangle`: returns, per boundary
    matching, the A-polynomial collected over the eight local states
    (closed loops already folded in).
    """
    # dart -> the dart at the far end of its internal tangle edge
    edge_to, boundary = local_tangle(word)
    bd_of = {d: slot for slot, d in enumerate(boundary)}
    out: Dict[Matching, Dict[int, int]] = {}
    for state in itertools.product((0, 1), repeat=3):
        # dart -> the dart its crossing's smoothing joins it to
        joined = [0] * 12
        a_exp = 0
        for i, bit in enumerate(state):
            s0, s1, s2, s3 = range(4 * i, 4 * i + 4)
            a_exp += 1 if bit else -1
            for p, q in ((s1, s2), (s3, s0)) if bit else ((s0, s1), (s2, s3)):
                joined[p], joined[q] = q, p
        # an arc runs from a boundary dart, alternating smoothings and
        # internal edges, to another boundary dart; what is left is loops
        seen = set(bd_of)
        pairs = []
        for p in bd_of:
            q = joined[p]
            while q not in bd_of:
                seen.add(q)
                q = edge_to[q]
                seen.add(q)
                q = joined[q]
            if p < q:
                pairs.append(frozenset((bd_of[p], bd_of[q])))
        loops = 0
        for p in range(12):
            if p in seen:
                continue
            loops += 1
            while p not in seen:
                seen.add(p)
                q = joined[p]
                seen.add(q)
                p = edge_to[q]
        matching: Matching = frozenset(pairs)
        poly = {a_exp: 1}
        for _ in range(loops):
            nxt: Dict[int, int] = {}
            for e, v in poly.items():
                for de in (2, -2):
                    nxt[e + de] = nxt.get(e + de, 0) - v
            poly = nxt
        acc = out.setdefault(matching, {})
        for e, v in poly.items():
            acc[e] = acc.get(e, 0) + v
            if not acc[e]:
                del acc[e]
    return {m: p for m, p in out.items() if p}


@lru_cache(maxsize=1)
def derive_triple_relation() -> TripleRelation:
    """Expand the three-double-crossing tangle symbolically, per height word.

    Each coefficient includes the local writhe normalisation, so summing the
    per-crossing coefficients over a whole diagram gives V(K) with no global
    correction factor.
    """
    by_height: Dict[str, Dict[Matching, HalfLaurent]] = {}
    for word in HEIGHT_WORDS:
        w = local_writhe(word)
        coeffs: Dict[Matching, HalfLaurent] = {}
        for matching, apoly in _tangle_bracket(word).items():
            if matching not in set(NONCROSSING):
                raise DiagramError("tangle expansion produced a crossing matching")
            coeffs[matching] = _bracket_to_half_laurent(apoly, w)
        if set(coeffs) != set(NONCROSSING):
            raise DiagramError("tangle expansion missed a non-crossing matching")
        by_height[word] = coeffs
    return TripleRelation(by_height)


# ---------------------------------------------------------------------------
# the state sum on triple diagrams, as a Kronecker contraction
# ---------------------------------------------------------------------------


# per matching index, its three chords as slot pairs
_CHORDS = [tuple((s, t) for s, t in enumerate(q) if s < t) for q in _PARTNERS]
# how the open paths join six slots up (slot -> slot) -> the loops each
# matching closes there: a loop is two orbits of the matching after the paths
_LAST_LOOPS = {
    paths: tuple(len(_cycles([q[t] for t in paths])) // 2 for q in _PARTNERS)
    for paths in itertools.permutations(range(6))
    if all(paths[s] != s and paths[paths[s]] == s for s in range(6))
}


def _state_loop_counts(proj: TripleProjection) -> List[int]:
    """Loop count of every full resolution of a projection, in the order of
    ``itertools.product(range(5), repeat=n)`` over matching indices.

    The crossings are resolved depth first, crossing 0 outermost.  ``end``
    maps each end of an open path to its other end, starting as ``alpha``
    (every edge a path).  Each chord of a matching at crossing ``c`` either
    closes a loop, when its two darts end one path, or joins two paths into
    one; the joins are undone on the way back.  At the last crossing every
    open path runs between two of its slots, and :data:`_LAST_LOOPS` gives
    the five loop counts at once.

    Height-independent, so batch evaluation over many height words of the
    same projection shares this table.
    """
    n = proj.n
    end = list(proj.alpha)
    last = 6 * (n - 1)
    out: List[int] = []

    def resolve(base: int, loops: int) -> None:
        if base == last:
            paths = tuple([e - base for e in end[base:base + 6]])
            out.extend([loops + k for k in _LAST_LOOPS[paths]])
            return
        for chords in _CHORDS:
            closed = loops
            joined = []
            for s, t in chords:
                a, b = base + s, base + t
                x = end[a]
                if x == b:
                    closed += 1
                else:
                    y = end[b]
                    end[x], end[y] = y, x
                    joined.append((x, a, y, b))
            resolve(base + 6, closed)
            for x, a, y, b in reversed(joined):
                end[x], end[y] = a, b

    resolve(0, 0)
    return out


def _contract(vec: List[int], shifts: List[int]) -> List[int]:
    """Contract the first axis of a ``5 x rest`` table of packed
    polynomials: entry ``j`` of the result sums ``vec[m rest + j] << shifts[m]``
    over the five matchings ``m``."""
    r = len(vec) // 5
    s0, s1, s2, s3, s4 = shifts
    return [(a << s0) + (b << s1) + (c << s2) + (d << s3) + (e << s4)
            for a, b, c, d, e in zip(vec[:r], vec[r:2 * r], vec[2 * r:3 * r],
                                     vec[3 * r:4 * r], vec[4 * r:])]


def jones_triple(diagram: TripleDiagram) -> HalfLaurent:
    """V(K) from the triple-crossing state sum: the packed loop-count
    vector contracted one crossing at a time with its exponent row, in
    digits wide enough for ``5^n 2^(3n - 1)`` (see :func:`jones_triple_batch`)."""
    return jones_triple_batch(diagram.projection, [diagram.heights])[0]


def jones_triple_batch(
    proj: TripleProjection, height_words: Sequence[Tuple[str, ...]]
) -> List[HalfLaurent]:
    """Jones polynomials of several diagrams over one shared projection.

    V(K) sums, over the 5^n resolutions ``s``, the term
    ``(-1)^n LOOP_FACTOR^(L(s) - 1) t^(e/2)``, where ``L(s)`` counts the
    loops of ``s`` and ``e`` adds up the exponents
    ``TripleRelation.exponents[word][s_i]`` of the crossings.  Only the
    exponents depend on the height words, so the sum is the n-fold
    Kronecker product of the words' exponent rows applied to the state
    vector (Yates 1937), done one crossing axis at a time.

    Each polynomial is packed into one int by Kronecker substitution, with
    the coefficient of ``t^(k/2)`` as a base-``2^bits`` digit: at place
    ``k + 3n - 1`` in the state vector, and 3 places further on per
    contracted crossing, so that multiplying by ``t^(e/2)`` is a left shift
    by ``bits * (e + 3)``.  A loop count is at most 3n (each loop takes at
    least one of the 3n edges), so the coefficients of
    ``LOOP_FACTOR^(L - 1)`` have magnitude at most ``2^(3n - 1)``, and
    every coefficient of a partial or full contraction, a sum over at most
    5^n states, at most ``5^n 2^(3n - 1)``.  ``bits`` puts that bound below
    half the base, so the balanced digits of the result are exactly its
    coefficients.

    Words that share a prefix share the contractions of that prefix: all
    6^n words of a projection take at most ``5 n 6^n`` shift-adds.

    A projection that is disconnected, not spherical or not one curve
    raises :class:`DiagramError`, once per call.  On the crossingless
    projection every (empty) word gives the unknot's 1.
    """
    proj.validate()
    if proj.num_components() != 1:
        raise DiagramError("not a knot: more than one component")
    n = proj.n
    if n == 0:
        return [HalfLaurent.one() for _ in height_words]
    exponents = derive_triple_relation().exponents
    bits = (5 ** n << (3 * n - 1)).bit_length() + 1
    shifts = {w: [bits * (e + 3) for e in row] for w, row in exponents.items()}
    # (-1)^n LOOP_FACTOR^(L - 1), packed, for L = 1 .. 3n: each factor
    # -t^(1/2) - t^(-1/2) is a shift-and-add
    powers = [(-1) ** n << bits * (3 * n - 1)]
    for _ in range(3 * n - 1):
        powers.append(-((powers[-1] << bits) + (powers[-1] >> bits)))
    vec = [powers[loops - 1] for loops in _state_loop_counts(proj)]
    # word prefix -> the table with that prefix's axes contracted
    partial: Dict[Tuple[str, ...], List[int]] = {(): vec}
    results = []
    for words in height_words:
        words = tuple(words)
        for k in range(1, n + 1):
            if words[:k] not in partial:
                partial[words[:k]] = _contract(partial[words[:k - 1]], shifts[words[k - 1]])
        (value,) = partial[words]
        digits = _balanced_digits(value, 1 << bits)
        results.append(HalfLaurent({place - 6 * n + 1: v for place, v in digits.items()}))
    return results
