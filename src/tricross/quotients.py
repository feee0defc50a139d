"""Counting knot-group homomorphisms into small permutation groups.

From a double diagram we read off the Wirtinger presentation: one generator
per arc, one conjugation relation per crossing.  Every homomorphism into a
finite group G sends all arc generators into a single conjugacy class, so the
count splits per class C.  With a distinguished meridian pinned to a fixed
representative of C the count T(C) is constant across the class, and

    N_K(C) = |C| * T_K(C)

is the number of homomorphisms with meridians in C.  For a connected sum the
two factors share one meridian, giving the product rule

    N_{K1 # K2}(C) = |C| * T_{K1}(C) * T_{K2}(C).

Mirroring and reversal do not change the knot group, so profiles need no
mirror folding.  These counts are independent of every polynomial invariant
in this package and are used to cross-examine classes whose polynomials
factor like a connected sum.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .alexander import _wirtinger
from .maps import DiagramError, DoubleDiagram

Perm = Tuple[int, ...]
Group = Tuple[List[Perm], Dict[Perm, Perm], List[List[Perm]]]

_GROUP_SIZES = {"S3": 3, "S4": 4, "S5": 5, "A4": 4, "A5": 5}


def _parity(p: Perm) -> int:
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    ) % 2


def _mul(p: Perm, q: Perm) -> Perm:
    """Composition p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def permutation_group(name: str) -> Group:
    """Elements, inverses, and conjugacy classes of S3/S4/S5/A4/A5."""
    size = _GROUP_SIZES.get(name)
    if size is None:
        raise DiagramError(f"unsupported group {name!r}")
    els = list(itertools.permutations(range(size)))
    if name.startswith("A"):
        els = [p for p in els if _parity(p) == 0]
    inv = {p: tuple(sorted(range(size), key=lambda i: p[i])) for p in els}
    classes: List[List[Perm]] = []
    seen = set()
    for p in els:
        if p in seen:
            continue
        orbit = {_mul(_mul(g, p), inv[g]) for g in els}
        seen |= orbit
        classes.append(sorted(orbit))
    return els, inv, classes


def _count_pinned(
    passes: Sequence[Tuple[int, int]],
    cls: Sequence[Perm],
    inv: Dict[Perm, Perm],
    rep: Perm,
) -> int:
    """Homomorphism count with arc 0 pinned to ``rep``, all arcs in ``cls``;
    passage ``k`` runs from arc ``k`` to arc ``k + 1`` beneath
    ``passes[k][0]``, with crossing sign ``passes[k][1]``.

    Each branch assigns the free arc that is the over-arc of the most
    passages, ties going to the lowest index: it is the one whose value
    propagates through the most relations."""
    arcs = len(passes)
    over_count = [0] * arcs
    for over, _ in passes:
        over_count[over] += 1
    order = sorted(range(arcs), key=lambda i: -over_count[i])

    def solve(assign: List[Perm | None]) -> int:
        changed = True
        while changed:
            changed = False
            for inn, (over, sign) in enumerate(passes):
                out = (inn + 1) % arcs
                w = assign[over]
                if w is None:
                    continue
                a, b = (w, inv[w]) if sign > 0 else (inv[w], w)
                if assign[inn] is not None:
                    y = _mul(_mul(a, assign[inn]), b)
                    if assign[out] is None:
                        assign[out] = y
                        changed = True
                    elif assign[out] != y:
                        return 0
                elif assign[out] is not None:
                    assign[inn] = _mul(_mul(b, assign[out]), a)
                    changed = True
        for i in order:
            if assign[i] is None:
                return sum(solve(assign[:i] + [g] + assign[i + 1:]) for g in cls)
        return 1

    start: List[Perm | None] = [None] * arcs
    start[0] = rep
    return solve(start)


def meridional_profile(dd: DoubleDiagram, group: Group) -> List[int]:
    """Pinned counts T(C) per conjugacy class, in canonical class order."""
    _, inv, classes = group
    passes = _wirtinger(dd)
    if not passes:
        return [1 for _ in classes]
    return [_count_pinned(passes, C, inv, C[0]) for C in classes]


def hom_counts(dd: DoubleDiagram, group: Group) -> List[int]:
    """Homomorphism counts N(C) = |C| * T(C) per conjugacy class."""
    _, _, classes = group
    return [len(C) * t for C, t in zip(classes, meridional_profile(dd, group))]


def connected_sum_counts(
    profile_a: Sequence[int], profile_b: Sequence[int], group: Group
) -> List[int]:
    """Predicted N(C) for a connected sum from the factors' pinned profiles."""
    _, _, classes = group
    return [
        len(C) * a * b for C, a, b in zip(classes, profile_a, profile_b)
    ]
