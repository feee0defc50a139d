"""Jones polynomial machinery.

Two independent routes compute V(K):

* :func:`jones_triple` resolves every triple crossing directly into the five
  non-crossing matchings of its six ends, with per-matching coefficients
  produced symbolically by :func:`derive_triple_relation`;
* :func:`bracket_jones` is the classical Kauffman bracket state sum with
  writhe normalisation, evaluated on a deconstructed double diagram.

Agreement of the two routes on every diagram is one of the package's core
acceptance checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .laurent import HalfLaurent
from .maps import DiagramError, DoubleDiagram, TripleDiagram, TripleProjection
from .tangle import TANGLE_ENDS, local_writhe, tangle_slots

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


class _DSU:
    __slots__ = ("p",)

    def __init__(self, size: int):
        self.p = list(range(size))

    def find(self, x: int) -> int:
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.p[rx] = ry

    def class_count(self) -> int:
        return sum(1 for i, v in enumerate(self.p) if self.find(i) == i)


# ---------------------------------------------------------------------------
# Kauffman bracket oracle on double diagrams
# ---------------------------------------------------------------------------


def kauffman_bracket(dd: DoubleDiagram) -> Dict[int, int]:
    """State-sum bracket; returns a map from A-exponent to coefficient.

    Smoothing convention for a crossing with the under-strand at slots 0, 2:
    the A smoothing joins darts (1,2) and (3,0), the 1/A smoothing joins
    (0,1) and (2,3).
    """
    m = dd.n
    if m == 0:
        return {0: 1}
    total: Dict[int, int] = {}
    delta_exps = (2, -2)  # -A^2 - A^-2, applied as a polynomial below
    for state in range(1 << m):
        dsu = _DSU(4 * m)
        for d in range(4 * m):
            dsu.union(d, dd.alpha[d])
        a_exp = 0
        for c in range(m):
            if state >> c & 1:  # A smoothing
                a_exp += 1
                dsu.union(4 * c + 1, 4 * c + 2)
                dsu.union(4 * c + 3, 4 * c + 0)
            else:
                a_exp -= 1
                dsu.union(4 * c + 0, 4 * c + 1)
                dsu.union(4 * c + 2, 4 * c + 3)
        loops = dsu.class_count()
        # multiply A^a_exp by (-A^2 - A^-2)^(loops - 1)
        poly = {a_exp: 1}
        for _ in range(loops - 1):
            nxt: Dict[int, int] = {}
            for e, v in poly.items():
                for de in delta_exps:
                    nxt[e + de] = nxt.get(e + de, 0) - v
            poly = nxt
        for e, v in poly.items():
            total[e] = total.get(e, 0) + v
            if not total[e]:
                del total[e]
    return total


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


def bracket_jones(dd: DoubleDiagram, tails: FrozenSet[int] | None = None) -> HalfLaurent:
    """Jones polynomial of a knot diagram via the bracket oracle."""
    if dd.n == 0:
        return HalfLaurent.one()
    if tails is None:
        tails = dd.orientations()[0]
    return _bracket_to_half_laurent(kauffman_bracket(dd), dd.writhe(tails))


# ---------------------------------------------------------------------------
# the triple-crossing skein relation
# ---------------------------------------------------------------------------


class TripleRelation:
    """Per-height-word resolution coefficients for one triple crossing.

    ``by_height[word][matching]`` is the (monomial) Jones coefficient of
    resolving a crossing with height word ``word`` into ``matching`` (a
    non-crossing perfect matching of the six boundary slots).
    ``class_of[word]`` is the chirality class: ``"x"`` when the coefficient
    exponents are positive, ``"y"`` for the mirror class.
    """

    def __init__(self, by_height: Dict[str, Dict[Matching, HalfLaurent]]):
        self.by_height = by_height
        self.class_of: Dict[str, str] = {}
        for word, coeffs in by_height.items():
            exps = sorted(c.max_exp2() for c in coeffs.values())
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

    Returns, per boundary matching, the A-polynomial collected over the
    eight local states (closed loops already folded in).
    """
    ports = [(x, a) for x, ends in TANGLE_ENDS.items() for a, _, _ in ends]
    port_idx = {p: i for i, p in enumerate(ports)}
    bd_of: Dict[int, int] = {}
    internal_edges = set()
    for x, ends in TANGLE_ENDS.items():
        for a, _, conn in ends:
            if conn[0] == "bd":
                bd_of[port_idx[(x, a)]] = conn[1]
            else:
                internal_edges.add(frozenset({(x, a), conn}))
    # per crossing, its four ports in slot order (under-strand at slot 0)
    slot_ports: Dict[str, List[int]] = {}
    for x in "abc":
        entries = []
        for _, conn in tangle_slots(x, word):
            # this crossing's own port carrying that connection
            for a, _, c2 in TANGLE_ENDS[x]:
                if c2 == conn:
                    entries.append(port_idx[(x, a)])
                    break
        assert len(entries) == 4
        slot_ports[x] = entries

    out: Dict[Matching, Dict[int, int]] = {}
    for state in itertools.product((0, 1), repeat=3):
        dsu = _DSU(len(ports))
        for e in internal_edges:
            p, q = tuple(e)
            dsu.union(port_idx[p], port_idx[q])
        a_exp = 0
        for x, bit in zip("abc", state):
            s0, s1, s2, s3 = slot_ports[x]
            if bit:
                a_exp += 1
                dsu.union(s1, s2)
                dsu.union(s3, s0)
            else:
                a_exp -= 1
                dsu.union(s0, s1)
                dsu.union(s2, s3)
        groups: Dict[int, List[int]] = {}
        for i in range(len(ports)):
            groups.setdefault(dsu.find(i), []).append(i)
        pairs = []
        loops = 0
        for members in groups.values():
            bds = [bd_of[i] for i in members if i in bd_of]
            if not bds:
                loops += 1
            else:
                assert len(bds) == 2
                pairs.append(frozenset(bds))
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
    for word in ("".join(p) for p in itertools.permutations("TMB")):
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
# the 5^n state sum on triple diagrams
# ---------------------------------------------------------------------------


def _state_loop_counts(proj: TripleProjection) -> List[Tuple[Tuple[int, ...], int]]:
    """Loop count of every full resolution of a projection.

    Height-independent, so batch evaluation over many height words of the
    same projection shares this table.
    """
    n = proj.n
    out = []
    for state in itertools.product(range(5), repeat=n):
        dsu = _DSU(6 * n)
        for d in range(6 * n):
            dsu.union(d, proj.alpha[d])
        for c, mi in enumerate(state):
            for pair in NONCROSSING[mi]:
                s, t = tuple(pair)
                dsu.union(6 * c + s, 6 * c + t)
        out.append((state, dsu.class_count()))
    return out


def jones_triple(diagram: TripleDiagram) -> HalfLaurent:
    """V(K) from the triple-crossing state sum (5^n resolutions)."""
    if diagram.n == 0:
        return HalfLaurent.one()
    return jones_triple_batch(diagram.projection, [diagram.heights])[0]


def jones_triple_batch(
    proj: TripleProjection, height_words: Sequence[Tuple[str, ...]]
) -> List[HalfLaurent]:
    """Jones polynomials of several diagrams over one shared projection."""
    n = proj.n
    rel = derive_triple_relation()
    # coefficient exponent tables: exp2[word][matching index]
    sign = -1 if n % 2 else 1
    states = _state_loop_counts(proj)
    loop_pows: Dict[int, HalfLaurent] = {}

    def loop_pow(c: int) -> HalfLaurent:
        if c not in loop_pows:
            loop_pows[c] = LOOP_FACTOR ** c
        return loop_pows[c]

    results = []
    for words in height_words:
        exp_tables = []
        for w in words:
            coeffs = rel.by_height[w]
            tab = []
            for m in NONCROSSING:
                p = coeffs[m].coeffs
                (e2, v), = p.items()
                if v != -1:
                    raise DiagramError("relation coefficient is not -t^e")
                tab.append(e2)
            exp_tables.append(tab)
        acc: Dict[int, int] = {}
        for state, c in states:
            e2 = 0
            for i, mi in enumerate(state):
                e2 += exp_tables[i][mi]
            for le2, lv in loop_pow(c - 1).coeffs.items():
                k = e2 + le2
                acc[k] = acc.get(k, 0) + sign * lv
        results.append(HalfLaurent({k: v for k, v in acc.items() if v}))
    return results
