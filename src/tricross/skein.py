"""The descending-diagram skein recursion shared by HOMFLY and Kauffman F.

Both polynomials are evaluated the same way: walk the diagram component by
component, take the first crossing whose first visit is on its under-strand,
and expand it by the polynomial's skein rule into the diagram with that
crossing switched plus one or two smoothings of it.  A diagram with no such
crossing is descending, a stack of unknots.

A recursion state is ``(dd, tails, flips)``: the shadow ``dd`` (under-strand
at slots 0 and 2), an orientation given by its tail darts (empty for an
unoriented recursion), and the crossings whose over- and under-strands are
exchanged relative to ``dd``.  A switch only toggles ``flips``, so the shadow
and the traversal never change and every switch strictly reduces the number
of crossings first reached from below.

:class:`Engine` splits disconnected crossing graphs (a factor ``delta`` per
extra part), memoises states and bounds work by a budget on recursion nodes;
exceeding it raises ``BudgetError``.  A subclass supplies ``delta`` and the
skein rule for a connected diagram.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .laurent import Laurent2
from .maps import DoubleDiagram, d_opposite

Darts = FrozenSet[int]
Flips = FrozenSet[int]


class BudgetError(RuntimeError):
    """The skein recursion exceeded its crossing or node budget."""


def walks(dd: DoubleDiagram, tails: Optional[Darts] = None) -> List[List[int]]:
    """Strand components as walks of outgoing darts, by first dart.

    With ``tails`` each component follows the orientation from its smallest
    tail dart; without, it starts at its smallest dart."""
    seen = set()
    out = []
    for start in range(4 * dd.n):
        if start in seen or (tails is not None and start not in tails):
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            seen.add(d_opposite(d))
            walk.append(d)
            d = d_opposite(dd.alpha[d])
        out.append(walk)
    return out


def first_bad_crossing(dd: DoubleDiagram, tails: Darts, flips: Flips) -> Optional[int]:
    """First crossing, in walk order, first reached on its under-strand."""
    visited = set()
    for walk in walks(dd, tails or None):
        for d in walk:
            c = d // 4
            if c in visited:
                continue
            visited.add(c)
            if (d % 4 in (0, 2)) != (c in flips):
                return c
    return None


def _split_crossings(dd: DoubleDiagram) -> List[List[int]]:
    """Connected components of the crossing graph."""
    parent = list(range(dd.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in range(4 * dd.n):
        a, b = find(d // 4), find(dd.alpha[d] // 4)
        if a != b:
            parent[a] = b
    groups: Dict[int, List[int]] = {}
    for c in range(dd.n):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


def _sub_diagram(
    dd: DoubleDiagram, tails: Darts, flips: Flips, crossings: List[int]
) -> Tuple[DoubleDiagram, Darts, Flips]:
    index = {c: i for i, c in enumerate(crossings)}
    alpha = [0] * (4 * len(crossings))
    for c in crossings:
        for s in range(4):
            e = dd.alpha[4 * c + s]
            alpha[4 * index[c] + s] = 4 * index[e // 4] + e % 4
    sub_tails = tails and frozenset(
        4 * index[d // 4] + d % 4 for d in tails if d // 4 in index)
    sub_flips = flips and frozenset(index[f] for f in flips if f in index)
    return DoubleDiagram(alpha, len(crossings)), sub_tails, sub_flips


def smooth(
    dd: DoubleDiagram, tails: Darts, flips: Flips, c: int, through: Dict[int, int]
) -> Tuple[DoubleDiagram, Darts, Flips, int]:
    """Drop crossing ``c``, joining its four darts in the pairs ``through``.

    Returns the smaller diagram with its tails and flips relabelled, and the
    number of circles freed (those that run only through ``c``).
    """
    local = set(through)
    pairs = []
    seen = set()
    for d in range(4 * dd.n):
        if d in local or d in seen:
            continue
        e = dd.alpha[d]
        while e in local:
            e = dd.alpha[through[e]]
        pairs.append((d, e))
        seen.add(d)
        seen.add(e)
    # circles living entirely on the removed crossing
    parent = {d: d for d in local}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    external = set()
    for d in local:
        parent[find(d)] = find(through[d])
        e = dd.alpha[d]
        if e in local:
            parent[find(d)] = find(e)
        else:
            external.add(d)
    loops = len({find(d) for d in local} - {find(d) for d in external})

    def relabel(d: int) -> int:
        return d - 4 if d // 4 > c else d

    alpha = [0] * (4 * (dd.n - 1))
    for d, e in pairs:
        alpha[relabel(d)] = relabel(e)
        alpha[relabel(e)] = relabel(d)
    # an empty orientation or flip set is passed on, not copied: it sits in
    # every memo key
    new_tails = tails and frozenset(relabel(d) for d in tails if d // 4 != c)
    new_flips = flips and frozenset(f - 1 if f > c else f for f in flips if f != c)
    return DoubleDiagram(alpha, dd.n - 1), new_tails, new_flips, loops


class Engine:
    """Memoised, node-budgeted recursion; subclasses set ``delta`` and
    implement ``connected``."""

    delta: Laurent2

    def __init__(self, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.nodes = 0
        self.memo: Dict[Tuple[Tuple[int, ...], Darts, Flips], Laurent2] = {}

    def eval(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetError(
                f"skein recursion exceeded the node budget ({self.max_nodes})"
            )
        if dd.n == 0:
            return Laurent2.one()
        key = (dd.alpha, tails, flips)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        parts = _split_crossings(dd)
        if len(parts) > 1:
            result = self.delta ** (len(parts) - 1)
            for crossings in parts:
                result = result * self.eval(*_sub_diagram(dd, tails, flips, crossings))
        else:
            result = self.connected(dd, tails, flips)
        self.memo[key] = result
        return result

    def eval_smoothed(
        self, smoothed: DoubleDiagram, tails: Darts, flips: Flips, loops: int
    ) -> Laurent2:
        # free loops are extra split components, except that an empty smoothed
        # diagram means one of them is the base circle itself
        extra = loops if smoothed.n else loops - 1
        return self.eval(smoothed, tails, flips) * self.delta**extra

    def connected(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        """The skein rule on a diagram whose crossing graph is connected."""
        raise NotImplementedError
