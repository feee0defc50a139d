"""Canonical codes for triple-crossing projections and diagrams.

A labeling of a connected map is fixed by a root dart and a rotation sense:
crossings are numbered in discovery order of a traversal, and each crossing's
slots are read from the entry dart in the chosen sense.  The canonical code is
the lexicographically smallest trace over all roots and all allowed senses.

Reversing the rotation sense reflects the sphere.  For a bare projection that
yields the mirror projection, so the reversed sense is only allowed when
folding mirrors.  For a diagram, a reflection combined with exchanging top and
bottom heights is a view of the same knot from the other side of the sphere,
while either operation alone gives the mirror knot; the allowed
(sense, height-operation) pairs below encode exactly that.  Since they cover
both senses, the trace part of a diagram code is the mirror-folded projection
code, and its height words are the least read in the frames of the traces
that equal that code.
"""

from __future__ import annotations

import functools
from typing import List, Tuple, Union

from .maps import TripleDiagram, TripleProjection

_RANK_REVERSE = str.maketrans("TB", "BT")


def _start_trace(n: int, root: int) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Empty trace from ``root``: code, order (new id -> old crossing), base
    slots (new id -> old slot) and new ids (old crossing -> new id or -1)."""
    new_id = [-1] * n
    new_id[root // 6] = 0
    return [], [root // 6], [root % 6], new_id


def _extend_trace(
    alpha: List[int], direction: int, code: List[int], order: List[int],
    base: List[int], new_id: List[int], stop: int,
) -> int:
    """Read the trace on, in place, from position ``len(code)`` to ``stop``.

    Position ``6 * i + k`` reads new slot ``k`` of new crossing ``i``; a
    crossing gets the next new id when first reached, and the slot it is
    reached at becomes its base.  ``alpha`` may be a partial pairing, with
    ``-1`` at unpaired darts: the trace then halts before reading one.
    Returns the dart the next position would read, or -1 past the last
    crossing reached.
    """
    cid, k = divmod(len(code), 6)
    last, end = divmod(stop, 6)
    while cid < len(order):
        first, b = 6 * order[cid], base[cid]
        for k in range(k, 6 if cid < last else end):
            dart = first + (b + direction * k) % 6
            partner = alpha[dart]
            if partner < 0:
                return dart
            pc, ps = partner // 6, partner % 6
            nid = new_id[pc]
            if nid == -1:
                nid = new_id[pc] = len(order)
                order.append(pc)
                base.append(ps)
            code.append(6 * nid + (direction * (ps - base[nid])) % 6)
        if cid == last:
            return first + (b + direction * end) % 6
        cid, k = cid + 1, 0
    return -1


def _height_word(word: str, base: int, direction: int, reverse_ranks: bool) -> str:
    out = "".join(word[(base + direction * k) % 6 % 3] for k in range(3))
    return out.translate(_RANK_REVERSE) if reverse_ranks else out


@functools.lru_cache(maxsize=2)
def _frames(
    alpha: Tuple[int, ...], n: int, directions: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]]:
    """Smallest relabeling trace over all roots and the given senses, and the
    frame ``(sense, order, base)`` of every trace equal to it.

    ``order`` is the new order of the old crossings and ``base`` their base
    slots: new slot ``k`` of new crossing ``i`` reads old slot
    ``base[i] + sense * k`` of crossing ``order[i]``.  The callers canonicalise
    the height words of one projection in a row, so a small cache suffices.
    """
    best, frames = None, []
    for direction in directions:
        for root in range(6 * n):
            code, order, base, new_id = _start_trace(n, root)
            _extend_trace(alpha, direction, code, order, base, new_id, 6 * n)
            code = tuple(code)
            if best is None or code < best:
                best, frames = code, []
            if code == best:
                frames.append((direction, tuple(order), tuple(base)))
    return best, tuple(frames)


def canonical_projection_code(
    proj: TripleProjection, fold_mirror: bool = True
) -> Tuple[int, ...]:
    """Smallest relabeling trace; with ``fold_mirror`` also over reflections."""
    if proj.n == 0:
        return ()
    return _frames(proj.alpha, proj.n, (1, -1) if fold_mirror else (1,))[0]


# (sense, reverse_ranks) pairs giving the same knot / the mirror knot.
_SAME_KNOT = ((1, False), (-1, True))
_MIRROR_KNOT = ((1, True), (-1, False))


def canonical_diagram_code(
    diagram: TripleDiagram, fold_mirror: bool = False
) -> Tuple:
    """Smallest (projection trace, height words) over all allowed views."""
    n = diagram.n
    if n == 0:
        return ((), ())
    code, frames = _frames(diagram.projection.alpha, n, (1, -1))
    views = _SAME_KNOT + (_MIRROR_KNOT if fold_mirror else ())
    return code, min(
        tuple(_height_word(diagram.heights[c], b, sense, reverse_ranks)
              for c, b in zip(order, base))
        for sense, order, base in frames
        for view_sense, reverse_ranks in views if view_sense == sense
    )


def diagrams_equivalent(
    d: TripleDiagram, e: TripleDiagram, fold_mirror: bool = False
) -> bool:
    return canonical_diagram_code(d, fold_mirror) == canonical_diagram_code(
        e, fold_mirror
    )


def canonical_form(
    obj: Union[TripleProjection, TripleDiagram], fold_mirror: bool = False
) -> Union[TripleProjection, TripleDiagram]:
    """Rebuild the object with the canonical labeling applied."""
    if isinstance(obj, TripleDiagram):
        return _diagram_from_code(canonical_diagram_code(obj, fold_mirror), obj.n)
    return TripleProjection(canonical_projection_code(obj, fold_mirror), obj.n)


def _diagram_from_code(code: Tuple, n: int) -> TripleDiagram:
    """The diagram that a ``canonical_diagram_code`` describes, so labeled."""
    alpha, words = code
    return TripleDiagram(TripleProjection(alpha, n), words)
