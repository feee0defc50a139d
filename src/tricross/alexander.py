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
from .maps import DiagramError, DoubleDiagram


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


def _wirtinger(
    dd: DoubleDiagram, tails: FrozenSet[int] | None = None
) -> List[Tuple[int, int, int, int]]:
    """Per crossing ``(out_arc, in_arc, over_arc, sign)``: the under-strand
    passes from ``in_arc`` to ``out_arc`` beneath ``over_arc``, along
    ``tails`` or, without, along the knot's first walk.  A link raises
    :class:`DiagramError`.

    One walk along the knot numbers the arcs: a new arc starts at each
    under-strand exit (an even tail dart), so a dart lies on arc ``k mod n``
    after ``k`` under exits, and the darts before the first exit lie on the
    arc that wraps round to them."""
    n = dd.n
    walks = dd.walks(tails)
    if len(walks) != 1:
        raise DiagramError("not a knot: more than one component")
    (order,) = walks
    under: List[Tuple[int, int]] = [(0, 0)] * n  # (dart, arcs begun) per crossing
    over = [(0, 0)] * n
    k = 0
    for d in order:
        if d % 2 == 0:
            k += 1
            under[d // 4] = (d, k)
        else:
            over[d // 4] = (d, k)
    return [(u_arc % n, u_arc - 1, o_arc % n, 1 if (o - u) % 4 == 1 else -1)
            for (u, u_arc), (o, o_arc) in zip(under, over)]


def alexander(dd: DoubleDiagram) -> IntLaurent:
    """Normalised Alexander polynomial of a knot diagram."""
    if dd.n == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    rels = _wirtinger(dd)
    size = dd.n - 1
    if size == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    # the rows of the crossing matrix at t = B, crossing by crossing, with
    # the last crossing's row and the last arc's column dropped
    base = 2 * 4 ** size + 1
    mat = [[0] * size for _ in range(size)]
    for row, (out_arc, in_arc, over_arc, sign) in zip(mat, rels):
        if sign > 0:
            cells = ((over_arc, 1 - base), (in_arc, base), (out_arc, -1))
        else:
            cells = ((over_arc, base - 1), (in_arc, 1), (out_arc, -base))
        for col, value in cells:
            if col < size:
                row[col] += value
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
