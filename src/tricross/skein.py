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
gains a factor ``a`` or ``a^-1`` per kink, by the kink's sign.  The moves
are made on one working copy of the state's pairing, with every label
kept, and the crossings left are renumbered once: one
:class:`DoubleDiagram` is built per reduced state.

:class:`Engine` splits disconnected crossing graphs (a factor ``delta`` per
extra part), memoises reduced states and bounds work by a budget on
recursion nodes; exceeding it raises ``BudgetError``.  A subclass supplies
``delta``, the factor of a kink writhe and the skein rule for a connected
diagram.

A smoothing is named by its crossing ``c`` and a slot parity ``p``: slots
``p, p+1`` and ``p+2, p+3`` (mod 4) of ``c`` are joined, so every crossing
has the two smoothings ``p = 0`` and ``p = 1``.  Removing a kink or a bigon
edge, and the Kauffman and HOMFLY expansions, each pick one of them.  A
smoothing is two splices, one per joined slot pair ``(a, b)``: the darts
glued to ``a`` and ``b`` are glued to each other, or, when ``a`` is glued
to ``b``, a circle closes.  Each splice is O(1), with no walk; a skein
expansion's smoothing is the first splice of its state's reduction
(:meth:`Engine.smoothed`).

The module keeps no traversal of its own: the strand walks
(:meth:`DoubleDiagram.walks`) and the parts of the crossing graph
(:meth:`DoubleDiagram.crossing_components`) come from the shared map class.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .laurent import Laurent2
from .maps import DoubleDiagram, d_sigma

Darts = FrozenSet[int]
Flips = FrozenSet[int]


class BudgetError(RuntimeError):
    """The skein recursion exceeded its crossing or node budget."""


def first_bad_crossing(
    dd: DoubleDiagram, tails: Darts, flips: Flips
) -> Tuple[Optional[int], List[List[int]]]:
    """First crossing, in walk order, first reached on its under-strand
    (None for a descending diagram), and the strand walks read: those of
    ``tails``, or one per component in an unoriented recursion."""
    walks = dd.walks(tails or None)
    visited = set()
    for walk in walks:
        for d in walk:
            c = d // 4
            if c in visited:
                continue
            visited.add(c)
            if (d % 4 in (0, 2)) != (c in flips):
                return c, walks
    return None, walks


def _renumber(
    alpha: Sequence[int], tails: Darts, flips: Flips, crossings: List[int]
) -> Tuple[DoubleDiagram, Darts, Flips]:
    """The diagram on ``crossings`` (ascending), whose darts ``alpha`` pairs
    among themselves, numbered in that order, with its tails and flips.

    An empty orientation or flip set is passed on, not copied: it sits in
    every memo key."""
    index = [-1] * (len(alpha) // 4)
    for i, c in enumerate(crossings):
        index[c] = i
    sub_alpha = [4 * index[e // 4] + e % 4
                 for c in crossings for e in alpha[4 * c:4 * c + 4]]
    sub_tails = tails and frozenset(
        4 * index[d // 4] + d % 4 for d in tails if index[d // 4] >= 0)
    sub_flips = flips and frozenset(index[f] for f in flips if index[f] >= 0)
    return DoubleDiagram(sub_alpha, len(crossings)), sub_tails, sub_flips


def _splice(alpha: List[int], c: int, p: int) -> int:
    """Smooth crossing ``c`` at parity ``p`` in the pairing ``alpha``, in
    place, and return the number of circles that close.

    Each joined slot pair ``(a, b)`` is spliced out: the darts glued to
    ``a`` and ``b`` are glued to each other, unless ``a`` is glued to ``b``
    and the pair closes a circle.  The darts of ``c`` are left dangling."""
    loops = 0
    for k in (p, p + 2):
        a, b = 4 * c + k % 4, 4 * c + (k + 1) % 4
        x, y = alpha[a], alpha[b]
        if x == b:
            loops += 1
        else:
            alpha[x], alpha[y] = y, x
    return loops


def _over(d: int, flips: Flips) -> bool:
    return (d % 2 == 1) != (d // 4 in flips)


def _next_move(
    alpha: Sequence[int], live: List[int], flips: Flips
) -> Optional[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """The first kink, else the first same-level bigon, among the crossings
    ``live`` of ``alpha`` in that order, as its kink writhe and the
    ``(crossing, parity)`` smoothings that remove it; None if there is
    neither.

    An edge of the face is cut at its darts ``y`` and ``x = d_sigma(y)`` of
    one crossing: the smoothing joins ``x`` to ``x + 1`` and ``y`` to
    ``x + 2``, the parity ``x % 2``."""
    for c in live:
        for d in range(4 * c, 4 * c + 4):
            if d_sigma(alpha[d]) == d:
                # a monogon face: the strand leaves at alpha[d] and comes back
                # in at d; its sign, orientation-free, is +1 when it comes
                # back in under
                return (-1 if _over(d, flips) else 1), ((c, d % 2),)
    for c in live:
        for d in range(4 * c, 4 * c + 4):
            e = alpha[d]
            f = d_sigma(e)
            if d_sigma(alpha[f]) == d and c != e // 4 and _over(d, flips) == _over(e, flips):
                # a bigon face with edges d-e and f-alpha[f], not a clasp:
                # the strand on d-e is over (or under) at both its crossings
                return 0, ((c, d % 2), (e // 4, f % 2))
    return None


def _reduce(
    dd: DoubleDiagram, alpha: List[int], live: List[int], tails: Darts, flips: Flips,
    loops: int
) -> Tuple[DoubleDiagram, Darts, Flips, int, int]:
    """:func:`reduce` on the working pairing ``alpha`` of ``dd``, whose
    crossings ``live`` (ascending) are left and which has freed ``loops``
    circles so far.

    Every move is spliced out of ``alpha`` in place, with every label kept;
    the live crossings are renumbered once, at the end.  ``dd`` itself is
    returned when nothing was removed."""
    kinks = 0
    move = _next_move(alpha, live, flips)
    if move is None and len(live) == dd.n:
        return dd, tails, flips, 0, loops
    while move is not None:
        sign, steps = move
        kinks += sign
        for c, p in steps:
            loops += _splice(alpha, c, p)
            live.remove(c)
        move = _next_move(alpha, live, flips)
    return (*_renumber(alpha, tails, flips, live), kinks, loops)


def reduce(
    dd: DoubleDiagram, tails: Darts, flips: Flips
) -> Tuple[DoubleDiagram, Darts, Flips, int, int]:
    """Remove Reidemeister I kinks and same-level Reidemeister II bigons
    until there are none.

    A bigon is removed only when the strand on one of its edges is over at
    both of its crossings; a clasp is kept.  Moves are found in crossing
    order, first kink before first bigon, and spliced out of one working
    copy of the pairing; the state is renumbered and built once.  Returns
    the reduced state (``dd``, ``tails`` and ``flips`` themselves when there
    is no move), the kink writhe (the summed orientation-free signs of the
    kinks removed) and the number of circles freed.
    """
    return _reduce(dd, list(dd.alpha), list(range(dd.n)), tails, flips, 0)


class Engine:
    """Memoised, node-budgeted recursion on reduced states; subclasses set
    ``delta`` and the node budget ``max_nodes`` and implement ``connected``;
    Kauffman's overrides ``kinked``."""

    delta: Laurent2
    max_nodes: int

    def __init__(self) -> None:
        self.nodes = 0
        self.memo: Dict[Tuple[Tuple[int, ...], Darts, Flips], Laurent2] = {}

    def eval(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        self._count_node()
        if dd.n == 0:
            return Laurent2.one()
        return self._reduced_value(*reduce(dd, tails, flips))

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetError(
                f"skein recursion exceeded the node budget ({self.max_nodes})"
            )

    def _reduced_value(
        self, dd: DoubleDiagram, tails: Darts, flips: Flips, kinks: int, loops: int
    ) -> Laurent2:
        key = (dd.alpha, tails, flips)
        result = self.memo.get(key)
        if result is None:
            result = self._expand(dd, tails, flips)
            self.memo[key] = result
        return self.kinked(self._with_circles(result, dd.n, loops), kinks)

    def _expand(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        if dd.n == 0:
            return Laurent2.one()
        parts = dd.crossing_components()
        if len(parts) == 1:
            return self.connected(dd, tails, flips)
        result = self.delta ** (len(parts) - 1)
        for crossings in parts:
            result = result * self.eval(*_renumber(dd.alpha, tails, flips, crossings))
        return result

    def _with_circles(self, value: Laurent2, n: int, loops: int) -> Laurent2:
        # free loops are extra split components, except that an empty diagram
        # means one of them is the base circle itself
        extra = loops if n else loops - 1
        return value * self.delta**extra if extra else value

    def smoothed(
        self, dd: DoubleDiagram, tails: Darts, flips: Flips, c: int, p: int
    ) -> Laurent2:
        """The value of ``dd`` with crossing ``c`` smoothed at parity ``p``.

        The smoothing is the first splice of the smoothed state's reduction,
        so that state is renumbered and built once, already reduced; it
        counts one node, as :meth:`eval` of it would."""
        self._count_node()
        alpha = list(dd.alpha)
        loops = _splice(alpha, c, p)
        live = [k for k in range(dd.n) if k != c]
        return self._reduced_value(*_reduce(dd, alpha, live, tails, flips, loops))

    def kinked(self, value: Laurent2, kinks: int) -> Laurent2:
        """``value`` times the factor of a removed kink writhe; HOMFLY is an
        ambient-isotopy invariant and ignores it."""
        return value

    def connected(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        """The skein rule on a diagram whose crossing graph is connected."""
        raise NotImplementedError
