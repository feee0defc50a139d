"""Alexander polynomial from the labeled-arc crossing matrix.

Arcs are maximal over-strand runs between consecutive under-passages.  Each
crossing contributes one linear relation among the arcs through it (the
abelianised Wirtinger relation); the Alexander polynomial is any maximal
minor of the resulting matrix, normalised to the symmetric representative
with value 1 at ``t = 1``.

The minor is computed with one integer determinant by Kronecker
substitution.  Each row of the crossing matrix holds the coefficients of
``1 - t``, ``t`` and ``-1`` (or their negatives), so its coefficients have
absolute sum at most 4; arcs sharing a column and the dropped column only
lower that sum.  Expanding the ``size x size`` minor as a sum over
permutations, the coefficients of det M(t) have absolute sum at most the
product of the row sums, ``4**size``, so every coefficient has magnitude at
most ``4**size``.  Fraction-free Bareiss elimination of M at the integer
``B = 2 * 4**size + 1`` gives det M(B), whose balanced base-``B`` digits
(each in ``[-(B - 1)/2, (B - 1)/2]``) are exactly the coefficients of
det M(t).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from .laurent import IntLaurent
from .maps import DiagramError, DoubleDiagram, d_opposite


def _int_det(mat: List[List[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _balanced_digits(value: int, base: int) -> Dict[int, int]:
    """Nonzero digits of ``value`` in balanced base ``base``, by place: each
    digit is read in ``(base // 2 - base, base // 2]``, so any base is exact
    for digits of magnitude below ``base / 2``."""
    half = base // 2
    digits: Dict[int, int] = {}
    place = 0
    while value:
        r = value % base
        if r > half:
            r -= base
        if r:
            digits[place] = r
        value = (value - r) // base
        place += 1
    return digits


def _arcs(dd: DoubleDiagram, tails: FrozenSet[int]) -> Dict[int, int]:
    """Arc index of every tail dart along the knot traversal."""
    (order,) = dd.walks(tails)
    # break arcs after each under-passage exit: an under-exit tail starts a new arc
    arc_of: Dict[int, int] = {}
    arc = 0
    for d in order:
        if d % 4 in (0, 2):  # exiting on the under-strand: new arc starts here
            arc += 1
        arc_of[d] = arc
    # the first few darts (before the first under-exit) belong to the last arc
    total = arc
    for d in order:
        if d % 4 in (0, 2):
            break
        arc_of[d] = total
    return {d: a % total for d, a in arc_of.items()} if total else {}


def _wirtinger(dd: DoubleDiagram, tails: FrozenSet[int]) -> List[Tuple[int, int, int, int]]:
    """Per crossing ``(out_arc, in_arc, over_arc, sign)``: the under-strand
    passes from ``in_arc`` to ``out_arc`` beneath ``over_arc``."""
    arc_of = _arcs(dd, tails)
    rows = []
    for c in range(dd.n):
        u_out = 4 * c + (0 if 4 * c + 0 in tails else 2)
        o_out = 4 * c + (1 if 4 * c + 1 in tails else 3)
        u_in_far = dd.alpha[d_opposite(u_out)]  # tail dart of the incoming under edge
        rows.append((arc_of[u_out], arc_of[u_in_far], arc_of[o_out],
                     dd.crossing_sign(c, tails)))
    return rows


def alexander(dd: DoubleDiagram, tails: FrozenSet[int] | None = None) -> IntLaurent:
    """Normalised Alexander polynomial of a knot diagram."""
    m = dd.n
    if m == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    if tails is None:
        tails = dd.orientations()[0]

    # rows over Z[t] as coefficient pairs (c0 + c1*t) per arc column
    rows: List[Dict[int, Tuple[int, int]]] = []
    for out_arc, in_arc, over_arc, sign in _wirtinger(dd, tails):
        row: Dict[int, Tuple[int, int]] = {}

        def add(col: int, c0: int, c1: int) -> None:
            a0, a1 = row.get(col, (0, 0))
            row[col] = (a0 + c0, a1 + c1)

        if sign > 0:
            add(over_arc, 1, -1)   # 1 - t
            add(in_arc, 0, 1)      # t
            add(out_arc, -1, 0)    # -1
        else:
            add(over_arc, -1, 1)   # t - 1
            add(in_arc, 1, 0)      # 1
            add(out_arc, 0, -1)    # -t
        rows.append(row)

    size = m - 1
    if size == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    base = 2 * 4 ** size + 1
    mat = [
        [
            rows[i].get(j, (0, 0))[0] + rows[i].get(j, (0, 0))[1] * base
            for j in range(size)
        ]
        for i in range(size)
    ]
    return _normalize(_balanced_digits(_int_det(mat), base))


def _normalize(poly: Dict[int, int]) -> IntLaurent:
    """Symmetric representative with value 1 at t = 1."""
    if not poly:
        raise DiagramError("Alexander determinant vanished on a knot diagram")
    lo, hi = min(poly), max(poly)
    span = hi - lo
    if span % 2:
        raise DiagramError("Alexander polynomial has odd breadth")
    shift = lo + span // 2
    centered = {e - shift: v for e, v in poly.items()}
    at_one = sum(centered.values())
    if abs(at_one) != 1:
        raise DiagramError(f"Alexander value at 1 is {at_one}, expected +-1")
    if at_one < 0:
        centered = {e: -v for e, v in centered.items()}
    sym = {-e: v for e, v in centered.items()}
    if sym != centered:
        raise DiagramError("Alexander polynomial is not symmetric")
    return IntLaurent.from_int_coeffs(centered)
