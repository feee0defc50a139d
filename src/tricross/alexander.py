"""Alexander polynomial from the Wirtinger relations, with the arcs that pass
over nothing eliminated.

Arcs are maximal over-strand runs between consecutive under-passages.  Each
under-passage gives one linear relation among the arcs through it (the
abelianised Wirtinger relation): passing with crossing sign ``s`` from arc
``x_in`` beneath arc ``x_o`` onto arc ``x_out``,
``x_out = t^s x_in + (1 - t^s) x_o``.  An arc that passes over nothing
appears in exactly two relations, as the out-arc of one and the in-arc of
the next; substituting the one into the other removes it, a Tietze move
that leaves the elementary ideals unchanged (Crowell & Fox, *Introduction
to Knot Theory*, 1963).  So each chain of passages joined through such arcs
is one row.  For a chain with signs ``s_1 .. s_L``, prefix sums
``P_0 = 0, .., P_L`` and ``top = max P``, the row (the composed relation
times ``t^(top - P_L)``) is ``t^top`` on the chain's in-arc,
``-t^(top - P_L)`` on its out-arc, and ``t^(top - P_k) - t^(top - P_(k-1))``
on the over arc of step ``k``.  The arcs left are the ones that pass over
something, each the in-arc of one chain, so the matrix is square; the
Alexander polynomial is any maximal minor, normalised to the symmetric
representative with value 1 at ``t = 1``.

The minor is computed with one integer determinant by Kronecker
substitution.  A row merged from ``L`` relations has coefficients of
absolute sum at most ``2 L + 2``: 1 on each end arc and 2 per step; arcs
sharing a column and the dropped column only lower that sum.  Expanding
the minor as a sum over permutations, the coefficients of det M(t) have
absolute sum at most the product of the kept rows' sums, so every
coefficient has magnitude at most that product.  Fraction-free Bareiss
elimination of M at the integer ``B = 2 * prod(2 L + 2) + 1`` gives
det M(B), whose balanced base-``B`` digits (each in
``[-(B - 1)/2, (B - 1)/2]``) are exactly the coefficients of det M(t).

:func:`alexander` reads the under-passages off either kind of diagram: off
a :class:`DoubleDiagram` through :func:`_wirtinger`, and off a
:class:`TripleDiagram` through one strand walk of its projection.  Inside a
triple crossing, :func:`tangle.local_walk` gives the order in which each
strand meets the other two at the three double crossings it deconstructs
into, and the sign of each; the height word says which strand passes under.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .laurent import IntLaurent
from .maps import (HEIGHT_RANK, HEIGHT_WORDS, DiagramError, DoubleDiagram, TripleDiagram,
                   TripleProjection)
from .tangle import local_walk


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


def _wirtinger(dd: DoubleDiagram) -> List[Tuple[int, int]]:
    """The under-passages of ``dd`` along the knot's first walk, in the
    format :func:`_chain_alexander` reads:
    ``passes[k] = (over arc, sign)``, passage ``k`` running from arc ``k``
    to arc ``k + 1`` (mod ``n``).  A link raises :class:`DiagramError`.

    One walk along the knot numbers the arcs: a new arc starts at each
    under-strand exit (an even tail dart), so a dart lies on arc ``k mod n``
    after ``k`` under exits, and the darts before the first exit lie on the
    arc that wraps round to them."""
    n = dd.n
    if n == 0:
        return []
    walks = dd.walks()
    if len(walks) != 1:
        raise DiagramError("not a knot: more than one component")
    (order,) = walks
    unders: List[int] = []  # under exits in walk order: passage k ends at the k-th
    over = [(0, 0)] * n  # per crossing: (over dart, its arc)
    for d in order:
        if d % 2 == 0:
            unders.append(d)
        else:
            over[d // 4] = (d, len(unders) % n)
    passes = []
    for u in unders:
        o, arc = over[u // 4]
        passes.append((arc, 1 if (o - u) % 4 == 1 else -1))
    return passes


def _chain_alexander(passes: Sequence[Tuple[int, int]]) -> IntLaurent:
    """Normalised Alexander polynomial of a knot whose ``k``-th under-passage
    along its walk runs from arc ``k`` to arc ``k + 1`` (mod their number)
    beneath arc ``passes[k][0]``, with crossing sign ``passes[k][1]``."""
    m = len(passes)
    if m == 0:
        return IntLaurent.from_int_coeffs({0: 1})
    column = [-1] * m  # per arc: its chain's row, or -1 if it passes over nothing
    for o, _ in passes:
        column[o] = 0
    chains = []  # per chain: in-arc, [(over arc, sign) per step]
    i = passes[0][0]
    for _ in range(m):
        if column[i] >= 0:
            column[i] = len(chains)
            steps: List[Tuple[int, int]] = []
            chains.append((i, steps))
        steps.append(passes[i])
        i = (i + 1) % m
    size = len(chains) - 1  # the last row and the last chain's column dropped
    base = 1
    for _, steps in chains[:size]:
        base *= 2 * len(steps) + 2
    base = 2 * base + 1
    mat = [[0] * size for _ in range(size)]
    for row, (start, steps) in zip(mat, chains):
        p = top = 0
        for _, s in steps:
            p += s
            if p > top:
                top = p
        # walking the chain, e = top - P_k and x = B^e after step k
        e = top
        x = base ** e
        row[column[start]] += x
        for o, s in steps:
            e -= s
            y = base ** e
            col = column[o]
            if col < size:
                row[col] += y - x
            x = y
        col = column[(start + len(steps)) % m]
        if col < size:
            row[col] -= x
    return _normalize(_balanced_digits(_int_det(mat), base))


# Per strand ``j`` in its natural direction (slots 0, 2, 4 incoming), the
# double crossings it meets, in order, as (sub-crossing, pair ``3 j + k``);
# every height word walks them in the same order.
_ALONG = tuple(tuple((i, 3 * j + k) for i, k in meets)
               for j, meets in enumerate(local_walk(HEIGHT_WORDS[0])[0]))


def _passes_under(word: str) -> Tuple[int, ...]:
    """Per ordered strand pair ``3 j + k``: 0 when strand ``j`` passes over
    strand ``k``, else the sign of their double crossing in ``word``."""
    meets, signs = local_walk(word)
    row = [0] * 9
    for j, strand in enumerate(meets):
        for i, k in strand:
            if HEIGHT_RANK[word[j]] < HEIGHT_RANK[word[k]]:
                row[3 * j + k] = signs[i]
    return tuple(row)


_PASSES_UNDER = {w: _passes_under(w) for w in HEIGHT_WORDS}


@lru_cache(maxsize=2)
def _meetings(alpha: Tuple[int, ...], n: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """The double crossings met along one strand walk of the knot projection
    ``alpha``, in walk order, as ``(triple crossing, double crossing, 3 j + k,
    direction)``: strand ``j`` walking meets strand ``k`` at double crossing
    ``3 t + i`` (sub-crossing ``"abc"[i]`` of triple crossing ``t``), and
    ``direction`` is the product of the two strands' directions, +1 where
    a strand runs in the natural direction.  A projection that is not
    spherical, or not one curve, raises :class:`DiagramError`.

    The order in which strand ``j`` meets the other two in its natural
    direction is :func:`tangle.local_walk`'s, reversed where it runs
    against it; it runs naturally exactly when it leaves through its odd
    slot.  The census reads the height words of one projection in a row, so
    a small cache suffices."""
    p = TripleProjection(alpha, n)
    p.validate()
    walks = p.walks()
    if len(walks) > 1:
        raise DiagramError("not a knot: more than one component")
    order = walks[0] if walks else []
    tails = set(order)
    # direction of each strand k at triple crossing t: its odd slot is k or k + 3
    direction = [[1 if 6 * t + (k if k % 2 else k + 3) in tails else -1 for k in range(3)]
                 for t in range(n)]
    out = []
    for d in order:
        t, j = d // 6, d % 6 % 3
        sense = direction[t][j]
        for i, pair in _ALONG[j][::sense]:
            out.append((t, 3 * t + i, pair, sense * direction[t][pair % 3]))
    return tuple(out)


def _triple_passes(diagram: TripleDiagram) -> List[Tuple[int, int]]:
    """The under-passages of the deconstruction of ``diagram``, read off one
    strand walk of its projection: a new arc begins after each one, and a
    double crossing walked over lies on the arc begun last (mod ``3 n``)."""
    m = 3 * diagram.n
    heights = diagram.heights
    arc = 0
    over_arc = [0] * m
    unders = []
    for t, x, pair, direction in _meetings(diagram.alpha, diagram.n):
        s = _PASSES_UNDER[heights[t]][pair]
        if s:
            unders.append((x, s * direction))
            arc += 1
        else:
            over_arc[x] = arc
    return [(over_arc[x] % m, s) for x, s in unders]


def alexander(diagram: Union[TripleDiagram, DoubleDiagram]) -> IntLaurent:
    """Normalised Alexander polynomial of a knot diagram, triple or double."""
    if isinstance(diagram, TripleDiagram):
        return _chain_alexander(_triple_passes(diagram))
    return _chain_alexander(_wirtinger(diagram))


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
