"""The local three-double-crossing tangle that deconstructs a triple crossing.

A triple crossing has six ends on a small circle, counterclockwise slots
``0..5``; strand ``j`` runs through slots ``j`` and ``j + 3``.  In their
natural directions strands 0, 1, 2 enter at slots 0, 4, 2
(:data:`NATURAL_ENTRY`), so the ends alternate in and out.
Perturbing the triple point splits it into three transverse double points,
one per strand pair, with over/under decided by the height word (``T`` over
``M`` over ``B``).  All perturbations are related by a slide of one strand
across the opposite crossing, so the bracket-level expansion below does not
depend on the choice; we fix one concrete perturbation.

Geometry of the fixed perturbation (strand 1 pushed off the common point):

* crossing ``a`` = strands 0 x 2, ends at angles 0, 120, 180, 300;
* crossing ``b`` = strands 0 x 1, ends at angles 0, 60, 180, 240;
* crossing ``c`` = strands 1 x 2, ends at angles 60, 120, 240, 300.

Each entry of :data:`TANGLE_ENDS` is ``(angle, strand, connection)`` where
the connection is either ``("bd", slot)`` for a tangle boundary end or
``(crossing, angle)`` for an internal edge.  Only this module reads it: per
height word, :func:`local_tangle` turns it into one 12-dart table (dart
``4 i + s`` is slot ``s`` of sub-crossing ``"abc"[i]``, under-strand at
slots 0 and 2; each dart's internal partner, and the dart at each boundary
slot), built once per word.  That table is the one local model:
:func:`convert_to_double` copies it into every triple crossing, the Jones
relation walks it, and :func:`local_walk` walks each strand through it once
for the order in which the strands meet and the sign of every sub-crossing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from .maps import HEIGHT_RANK, DoubleDiagram, TripleDiagram

TANGLE_ENDS: Dict[str, List[Tuple[int, int, Tuple]]] = {
    "a": [
        (0, 0, ("bd", 0)),
        (120, 2, ("c", 300)),
        (180, 0, ("b", 0)),
        (300, 2, ("bd", 5)),
    ],
    "b": [
        (0, 0, ("a", 180)),
        (60, 1, ("c", 240)),
        (180, 0, ("bd", 3)),
        (240, 1, ("bd", 4)),
    ],
    "c": [
        (60, 1, ("bd", 1)),
        (120, 2, ("bd", 2)),
        (240, 1, ("b", 60)),
        (300, 2, ("a", 120)),
    ],
}

# The slot at which each strand enters in its natural direction.
NATURAL_ENTRY = (0, 4, 2)


@lru_cache(maxsize=None)
def local_tangle(heights: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The 12-dart table of the tangle for one height word.

    Dart ``4 i + s`` is slot ``s`` of sub-crossing ``"abc"[i]``, counted
    counterclockwise from an end of its under-strand, so the under-strand
    holds slots 0 and 2.  Returns the internal partner of each dart (``-1``
    at a boundary end) and the dart at each boundary slot ``0..5``.
    """
    dart: Dict[Tuple[str, int], int] = {}
    for i, x in enumerate("abc"):
        ends = sorted(TANGLE_ENDS[x])
        under = min((s for _, s, _ in ends), key=lambda s: HEIGHT_RANK[heights[s]])
        shift = 0 if ends[0][1] == under else 1
        for k, (angle, _, _) in enumerate(ends):
            dart[(x, angle)] = 4 * i + (k - shift) % 4
    partner = [-1] * 12
    boundary = [0] * 6
    for x, ends in TANGLE_ENDS.items():
        for angle, _, conn in ends:
            if conn[0] == "bd":
                boundary[conn[1]] = dart[(x, angle)]
            else:
                partner[dart[(x, angle)]] = dart[conn]
    return tuple(partner), tuple(boundary)


@lru_cache(maxsize=None)
def local_walk(heights: str) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], Tuple[int, ...]]:
    """One walk of each strand, in its natural direction, through the 12-dart
    table of ``heights``.  Returns, per strand, the sub-crossings it passes
    in order, each as ``(i, k)``: it meets strand ``k`` at sub-crossing
    ``"abc"[i]``; and the sign of each sub-crossing, read as
    :meth:`DoubleDiagram.crossing_sign` reads one: +1 when the over-strand
    leaves one slot counterclockwise past the under-strand.  Reversing both
    strands keeps the sign, so either natural orientation gives it."""
    partner, boundary = local_tangle(heights)
    strand_of = [0] * 12
    exit_slot = [[0, 0] for _ in range(3)]  # per sub-crossing: under's, over's
    paths = []  # per strand: the dart by which it leaves each sub-crossing
    for j, slot in enumerate(NATURAL_ENTRY):
        paths.append([])
        d = boundary[slot]
        while d >= 0:
            e = d ^ 2  # the opposite slot of the same sub-crossing
            strand_of[d] = strand_of[e] = j
            exit_slot[e // 4][e % 2] = e % 4
            paths[j].append(e)
            d = partner[e]
    meets = tuple(tuple((e // 4, strand_of[e ^ 1]) for e in path) for path in paths)
    signs = tuple(1 if (o - u) % 4 == 1 else -1 for u, o in exit_slot)
    return meets, signs


def local_writhe(heights: str) -> int:
    return sum(local_walk(heights)[1])


def convert_to_double(diagram: TripleDiagram) -> DoubleDiagram:
    """Deconstruct every triple crossing into three double crossings.

    Triple crossing ``t`` becomes crossings ``3 t .. 3 t + 2``, its darts
    those of :func:`local_tangle` offset by ``12 t``; boundary ends are
    joined through ``diagram.alpha``.  The result represents the same knot.
    """
    n = diagram.n
    if n == 0:
        return DoubleDiagram.unknot()
    outer = diagram.alpha
    tables = [local_tangle(w) for w in diagram.heights]
    alpha = [0] * (12 * n)
    for t, (partner, boundary) in enumerate(tables):
        base = 12 * t
        for d, e in enumerate(partner):
            if e >= 0:
                alpha[base + d] = base + e
        for slot, d in enumerate(boundary):
            u, v = divmod(outer[6 * t + slot], 6)
            alpha[base + d] = 12 * u + tables[u][1][v]
    dd = DoubleDiagram(alpha, 3 * n)
    dd.validate()
    return dd
