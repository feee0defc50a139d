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

Every state is first reduced (:func:`reduce`): Reidemeister I kinks and
Reidemeister II bigons whose one strand is over at both crossings are
removed until none is left (Ewing and Millett 1997).  HOMFLY is unchanged
by both moves; the regular-isotopy Kauffman Lambda is unchanged by R2 and
gains a factor ``a`` or ``a^-1`` per kink, by the kink's sign.

:class:`Engine` splits disconnected crossing graphs (a factor ``delta`` per
extra part), memoises reduced states and bounds work by a budget on
recursion nodes; exceeding it raises ``BudgetError``.  A subclass supplies
``delta``, the factor of a kink writhe and the skein rule for a connected
diagram.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .laurent import Laurent2
from .maps import DoubleDiagram, d_opposite, d_sigma

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


def _uncross(x: int, y: int) -> Dict[int, int]:
    """The passthrough that drops a crossing where darts ``x`` and ``y``
    bound one face: each joins the dart opposite the other."""
    ox, oy = d_opposite(x), d_opposite(y)
    return {x: oy, oy: x, y: ox, ox: y}


def _over(d: int, flips: Flips) -> bool:
    return (d % 2 == 1) != (d // 4 in flips)


def _next_move(dd: DoubleDiagram, flips: Flips) -> Optional[Tuple[int, List]]:
    """The first kink, else the first same-level bigon, as its kink writhe
    and the ``(crossing, passthrough)`` steps that remove it; None if the
    diagram has neither."""
    alpha = dd.alpha
    for d in range(4 * dd.n):
        e = alpha[d]
        if d_sigma(e) == d:
            # a monogon face: the strand leaves at e and comes back in at d;
            # its sign, orientation-free, is +1 when it comes back in under
            return (-1 if _over(d, flips) else 1), [(d // 4, _uncross(d, e))]
    for d in range(4 * dd.n):
        e = alpha[d]
        f = d_sigma(e)
        g = alpha[f]
        if d_sigma(g) == d and d // 4 != e // 4 and _over(d, flips) == _over(e, flips):
            # a bigon face with edges d-e and f-g, not a clasp: the strand on
            # d-e is over (or under) at both of its crossings
            steps = [(d // 4, _uncross(d, g)), (e // 4, _uncross(e, f))]
            # drop the higher crossing first so the other keeps its labels
            return 0, sorted(steps, key=lambda step: -step[0])
    return None


def reduce(
    dd: DoubleDiagram, tails: Darts, flips: Flips
) -> Tuple[DoubleDiagram, Darts, Flips, int, int]:
    """Remove Reidemeister I kinks and same-level Reidemeister II bigons
    until there are none.

    A bigon is removed only when the strand on one of its edges is over at
    both of its crossings; a clasp is kept.  Returns the reduced state, the
    kink writhe (the summed orientation-free signs of the kinks removed) and
    the number of circles freed.
    """
    kinks = loops = 0
    move = _next_move(dd, flips)
    while move is not None:
        sign, steps = move
        kinks += sign
        for c, through in steps:
            dd, tails, flips, freed = smooth(dd, tails, flips, c, through)
            loops += freed
        move = _next_move(dd, flips)
    return dd, tails, flips, kinks, loops


class Engine:
    """Memoised, node-budgeted recursion on reduced states; subclasses set
    ``delta`` and implement ``connected``, and Kauffman's overrides
    ``kinked``."""

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
        dd, tails, flips, kinks, loops = reduce(dd, tails, flips)
        key = (dd.alpha, tails, flips)
        result = self.memo.get(key)
        if result is None:
            result = self._expand(dd, tails, flips)
            self.memo[key] = result
        return self.kinked(self._with_circles(result, dd.n, loops), kinks)

    def _expand(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        if dd.n == 0:
            return Laurent2.one()
        parts = _split_crossings(dd)
        if len(parts) == 1:
            return self.connected(dd, tails, flips)
        result = self.delta ** (len(parts) - 1)
        for crossings in parts:
            result = result * self.eval(*_sub_diagram(dd, tails, flips, crossings))
        return result

    def _with_circles(self, value: Laurent2, n: int, loops: int) -> Laurent2:
        # free loops are extra split components, except that an empty diagram
        # means one of them is the base circle itself
        extra = loops if n else loops - 1
        return value * self.delta**extra if extra else value

    def eval_smoothed(
        self, smoothed: DoubleDiagram, tails: Darts, flips: Flips, loops: int
    ) -> Laurent2:
        return self._with_circles(self.eval(smoothed, tails, flips), smoothed.n, loops)

    def kinked(self, value: Laurent2, kinks: int) -> Laurent2:
        """``value`` times the factor of a removed kink writhe; HOMFLY is an
        ambient-isotopy invariant and ignores it."""
        return value

    def connected(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        """The skein rule on a diagram whose crossing graph is connected."""
        raise NotImplementedError
