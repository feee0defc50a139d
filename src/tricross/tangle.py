"""The local three-double-crossing tangle that deconstructs a triple crossing.

A triple crossing has six ends on a small circle, counterclockwise slots
``0..5``; strand ``j`` enters at slot ``j`` and leaves at slot ``j + 3``.
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
slot), built once per word.  :func:`convert_to_double` copies that table
into every triple crossing, and the Jones relation walks it.
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

# Strand pair meeting at each internal crossing.
TANGLE_STRANDS = {"a": (0, 2), "b": (0, 1), "c": (1, 2)}

# Direction of travel (exit angle) per strand at each crossing, under the
# natural orientation with slots 0, 2, 4 incoming: strand 0 runs slot 0 -> 3,
# strand 1 runs 4 -> 1, strand 2 runs 2 -> 5.
TANGLE_EXIT_ANGLE = {
    "a": {0: 180, 2: 300},
    "b": {0: 180, 1: 60},
    "c": {1: 60, 2: 300},
}


def local_crossing_sign(crossing: str, heights: str) -> int:
    """Sign of one internal double crossing for the height word ``heights``.

    Positive when the over-strand exit direction is a counterclockwise
    rotation (by less than 180 degrees) of the under-strand exit direction.
    Reversing both strands preserves the sign, so the choice between the two
    natural orientations does not matter.
    """
    s1, s2 = TANGLE_STRANDS[crossing]
    over, under = (s1, s2) if HEIGHT_RANK[heights[s1]] > HEIGHT_RANK[heights[s2]] else (s2, s1)
    diff = (TANGLE_EXIT_ANGLE[crossing][over] - TANGLE_EXIT_ANGLE[crossing][under]) % 360
    return 1 if 0 < diff < 180 else -1


def local_writhe(heights: str) -> int:
    return sum(local_crossing_sign(x, heights) for x in "abc")


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
        s1, s2 = TANGLE_STRANDS[x]
        under = s1 if HEIGHT_RANK[heights[s1]] < HEIGHT_RANK[heights[s2]] else s2
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
