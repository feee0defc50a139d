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


def _read_trace(
    alpha: List[int], ref: List[int], stop: int, sense: int, pos: int,
    order: Tuple[int, ...], base: Tuple[int, ...],
) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]:
    """Read a relabeling trace on from position ``pos`` while it ties ``ref``.

    Position ``6 * i + k`` reads new slot ``k`` of new crossing ``i``, the
    dart ``6 * order[i] + (base[i] + sense * k) % 6``; a crossing gets the
    next new id when first reached, and the slot it is reached at becomes
    its base.  ``alpha`` may be a partial pairing, with ``-1`` at unpaired
    darts.  Returns ``(value, pos, order, base, dart)``: at the first
    position that differs from ``ref``, its value (``>= 0``); otherwise
    ``-1``, with ``pos`` at ``stop``, at an unpaired dart or past the last
    crossing reached, and ``dart`` the dart ``pos`` reads (``-1`` past the
    last crossing).
    """
    while pos // 6 < len(order):
        i = pos // 6
        dart = 6 * order[i] + (base[i] + sense * pos) % 6
        partner = alpha[dart]
        if pos == stop or partner < 0:
            return -1, pos, order, base, dart
        crossing = partner // 6
        if crossing in order:
            j = order.index(crossing)
        else:
            j, order, base = len(order), order + (crossing,), base + (partner % 6,)
        value = 6 * j + sense * (partner - base[j]) % 6
        if value != ref[pos]:
            return value, pos, order, base, dart
        pos += 1
    return -1, pos, order, base, -1


@functools.lru_cache(maxsize=None)
def _height_word(word: str, base: int, direction: int, reverse_ranks: bool) -> str:
    out = "".join(word[(base + direction * k) % 6 % 3] for k in range(3))
    return out.translate(_RANK_REVERSE) if reverse_ranks else out


@functools.lru_cache(maxsize=2)
def _frames(
    alpha: Tuple[int, ...], n: int, senses: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]]:
    """Smallest relabeling trace over all roots and the given senses, and the
    frame ``(sense, order, base)`` of every trace equal to it, in the order
    read.  Each trace is read against the smallest one so far and dropped at
    its first larger position.

    ``order`` is the new order of the old crossings and ``base`` their base
    slots: new slot ``k`` of new crossing ``i`` reads old slot
    ``base[i] + sense * k`` of crossing ``order[i]``.  The callers canonicalise
    the height words of one projection in a row, so a small cache suffices.
    """
    best, frames = [6 * n] * (6 * n), []  # above every trace
    for sense in senses:
        for root in range(6 * n):
            value, pos, order, base, _ = _read_trace(
                alpha, best, 6 * n, sense, 0, (root // 6,), (root % 6,))
            if value < 0:
                frames.append((sense, order, base))
            elif value < best[pos]:
                while value >= 0:  # a new smallest trace: write its rest
                    best[pos] = value
                    value, pos, order, base, _ = _read_trace(
                        alpha, best, 6 * n, sense, pos + 1, order, base)
                frames = [(sense, order, base)]
    return tuple(best), tuple(frames)


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
