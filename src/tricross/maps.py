"""Combinatorial maps for triple-crossing projections and diagrams.

One map class of valence ``V`` serves both kinds of diagram: the 6-valent
triple-crossing projection and its 4-valent deconstruction.  A map with
``n`` crossings is a rotation system on the ``V n`` half-edges ("darts"):
dart ``V c + s`` is slot ``s`` (counterclockwise, 0-based) of crossing ``c``.
The rotation permutation is implicit (slot ``s -> s+1 mod V``); the edge
pairing ``alpha`` is an explicit fixed-point-free involution.  Faces are
orbits of ``sigma o alpha``, and a connected map is spherical when it has
``(V/2 - 1) n + 2`` of them.  Strands pass straight through a crossing: slot
``s`` and slot ``s + V/2`` carry the same strand.

A triple crossing (``V = 6``) has three strands ``0, 1, 2`` occupying slot
pairs ``(0,3), (1,4), (2,5)``.  A diagram adds a height word per crossing:
``heights[c][j]`` is the level (``T``/``M``/``B``) of strand ``j``.

Double (classical, ``V = 4``) diagrams have the under-strand at slots 0
and 2.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type, TypeVar

HEIGHT_RANK = {"T": 2, "M": 1, "B": 0}
# The six height words, as ``itertools.permutations("TMB")`` orders them: the
# census reads words in product order over this tuple, which fixes witnesses.
HEIGHT_WORDS = ("TMB", "TBM", "MTB", "MBT", "BTM", "BMT")

Orientation = FrozenSet[int]  # the set of darts pointing away from their crossing


class DiagramError(ValueError):
    """Raised for structurally invalid projections or diagrams."""


class InternalConsistencyError(RuntimeError):
    """Raised when a property the theory guarantees fails on concrete data."""


def _cycles(perm: Sequence[int]) -> List[List[int]]:
    seen = [False] * len(perm)
    out: List[List[int]] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(cyc)
    return out


# ---------------------------------------------------------------------------
# the map of valence V
# ---------------------------------------------------------------------------

_M = TypeVar("_M", bound="_Map")


class _Map:
    """A ``V``-valent combinatorial map; ``n == 0`` encodes the crossingless
    unknot.  Subclasses set the valence ``V`` and the hash tag."""

    __slots__ = ("n", "alpha")
    V: int
    _TAG: str

    def __init__(self, alpha: Sequence[int], n: Optional[int] = None):
        alpha = tuple(alpha)
        V = self.V
        if n is None:
            if len(alpha) % V:
                raise DiagramError(f"dart count must be a multiple of {V}")
            n = len(alpha) // V
        total = V * n
        if len(alpha) != total:
            raise DiagramError("pairing length does not match crossing count")
        for d, e in enumerate(alpha):
            if not 0 <= e < total or alpha[e] != d or e == d:
                raise DiagramError("pairing is not a fixed-point-free involution")
        self.n = n
        self.alpha = alpha

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash((self._TAG, self.alpha))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"

    @classmethod
    def unknot(cls: Type[_M]) -> _M:
        return cls((), 0)

    @classmethod
    def from_labels(cls: Type[_M], code: Sequence[Sequence[int]]) -> _M:
        """Validated map from per-crossing edge labels: ``V`` labels per
        crossing, counterclockwise, each label on exactly two darts."""
        V = cls.V
        where: Dict[int, List[int]] = {}
        for c, labels in enumerate(code):
            if len(labels) != V:
                raise DiagramError(f"each crossing needs exactly {V} edge labels")
            for s, lab in enumerate(labels):
                where.setdefault(lab, []).append(V * c + s)
        alpha = [0] * (V * len(code))
        for lab, darts in where.items():
            if len(darts) != 2:
                raise DiagramError(f"edge label {lab} appears {len(darts)} times, expected 2")
            alpha[darts[0]] = darts[1]
            alpha[darts[1]] = darts[0]
        m = cls(alpha, len(code))
        m.validate()
        return m

    # -- structure ---------------------------------------------------------

    def faces(self) -> List[List[int]]:
        """Orbits of the face permutation ``sigma o alpha``."""
        V = self.V
        return _cycles([a + 1 if (a + 1) % V else a + 1 - V for a in self.alpha])

    def crossing_components(self) -> List[List[int]]:
        """Connected components of the crossing graph (crossings joined by
        the pairing), each ascending, ordered by their smallest crossing."""
        n, V, alpha = self.n, self.V, self.alpha
        seen = [False] * n
        out: List[List[int]] = []
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            part = [root]
            stack = [root]
            while stack:
                c = stack.pop()
                for e in alpha[V * c:V * c + V]:
                    u = e // V
                    if not seen[u]:
                        seen[u] = True
                        part.append(u)
                        stack.append(u)
            out.append(sorted(part))
        return out

    def is_connected(self) -> bool:
        """The crossing graph has at most one component."""
        return len(self.crossing_components()) <= 1

    def is_spherical(self) -> bool:
        """Connected, and V - E + F = 2 by face tracing."""
        try:
            self.validate()
        except DiagramError:
            return False
        return True

    def validate(self) -> None:
        n = self.n
        if n == 0:
            return
        if not self.is_connected():
            raise DiagramError(f"{self!r} is disconnected")
        if len(self.faces()) != (self.V // 2 - 1) * n + 2:
            raise DiagramError("rotation system is not spherical")

    def walks(self, tails: Optional[Orientation] = None) -> List[List[int]]:
        """Strand walks: orbits of ``d -> opposite(alpha[d])``, the tail
        darts of one strand component in one direction, each from its
        smallest dart and ordered by it.

        Each component has two orbits, one per direction (the pairing maps
        one onto the other).  With ``tails`` (a union of orbits) the walks are
        the orbits that lie in ``tails``; without, the first orbit of each
        component."""
        V, alpha = self.V, self.alpha
        half = V // 2
        total = V * self.n
        seen = [False] * total
        out: List[List[int]] = []
        for start in range(total):
            if seen[start] or (tails is not None and start not in tails):
                continue
            walk = []
            d = start
            while not seen[d]:
                seen[d] = True
                walk.append(d)
                e = alpha[d]
                seen[e] = True  # the reverse orbit
                d = e + half if e % V < half else e - half
            out.append(walk)
        return out

    def num_components(self) -> int:
        return len(self.walks()) if self.n else 1

    def orientations(self) -> List[Orientation]:
        """Tail-dart sets of the two traversal directions of a knot."""
        if self.n == 0:
            return [frozenset(), frozenset()]
        walks = self.walks()
        if len(walks) != 1:
            raise DiagramError("not a knot: more than one component")
        return [frozenset(walks[0]), frozenset(self.alpha[d] for d in walks[0])]


# ---------------------------------------------------------------------------
# projections and diagrams
# ---------------------------------------------------------------------------


class TripleProjection(_Map):
    """The 6-valent map of a triple-crossing projection."""

    __slots__ = ()
    V = 6
    _TAG = "P"

    def is_prime(self) -> bool:
        """No 2-edge cut with crossings on both sides."""
        n = self.n
        if n <= 1:
            return True
        vedges = [(d // 6, self.alpha[d] // 6) for d, e in enumerate(self.alpha) if d < e]
        full = (1 << n) - 1
        for mask in range(1, full):
            if not mask & 1:
                continue
            cut = 0
            for u, v in vedges:
                if (mask >> u & 1) != (mask >> v & 1):
                    cut += 1
                    if cut > 2:
                        break
            if cut == 2:
                return False
        return True


def _checked_heights(heights: Sequence[str], n: int) -> Tuple[str, ...]:
    """``heights`` as a tuple, if it is one height word for each of ``n``
    crossings; otherwise :class:`DiagramError`."""
    heights = tuple(heights)
    if len(heights) != n:
        raise DiagramError("one height word per crossing required")
    for w in heights:
        if w not in HEIGHT_WORDS:
            raise DiagramError(f"height word {w!r} is not a permutation of T, M, B")
    return heights


class TripleDiagram:
    """A projection plus a height word at every crossing; knots only."""

    __slots__ = ("projection", "heights")

    def __init__(self, projection: TripleProjection, heights: Sequence[str]):
        self.projection = projection
        self.heights = _checked_heights(heights, projection.n)

    @property
    def n(self) -> int:
        return self.projection.n

    @property
    def alpha(self) -> Tuple[int, ...]:
        return self.projection.alpha

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TripleDiagram)
            and self.projection == other.projection
            and self.heights == other.heights
        )

    def __hash__(self) -> int:
        return hash(("D", self.projection.alpha, self.heights))

    def __repr__(self) -> str:
        return f"TripleDiagram(n={self.n}, heights={self.heights})"

    def validate(self) -> None:
        self.projection.validate()
        if self.projection.num_components() != 1:
            raise DiagramError("not a knot: more than one link component")

    @classmethod
    def unknot(cls) -> "TripleDiagram":
        return cls(TripleProjection.unknot(), ())


# ---------------------------------------------------------------------------
# natural orientations
# ---------------------------------------------------------------------------


def natural_orientations(diagram: TripleDiagram) -> List[Orientation]:
    """Both strand directions of a knot diagram, checked for in-out alternation.

    Each returned orientation is the set of "tail" darts (strand leaves the
    crossing through them).  For every valid knot diagram there are exactly
    two, mutual reversals of each other; anything else is flagged as an
    internal inconsistency rather than returned.
    """
    try:
        orientations = diagram.projection.orientations()
    except DiagramError as exc:
        raise InternalConsistencyError("strand trace is not a single knot component") from exc
    for tails in orientations:
        for c in range(diagram.n):
            even = {6 * c + s in tails for s in (0, 2, 4)}
            odd = {6 * c + s in tails for s in (1, 3, 5)}
            if len(even) != 1 or even == odd:
                raise InternalConsistencyError(
                    f"strands do not alternate in and out at crossing {c}"
                )
    return orientations


# ---------------------------------------------------------------------------
# double (4-valent) diagrams
# ---------------------------------------------------------------------------


def d_sigma(d: int) -> int:
    return 4 * (d // 4) + (d % 4 + 1) % 4


class DoubleDiagram(_Map):
    """Classical diagram: 4-valent map, under-strand at slots 0 and 2."""

    __slots__ = ()
    V = 4
    _TAG = "DD"

    @classmethod
    def from_pd(cls, code: Sequence[Sequence[int]]) -> "DoubleDiagram":
        """Build from a PD-style code: per crossing four edge labels,
        counterclockwise, under-strand at positions 0 and 2."""
        return cls.from_labels(code)

    def crossing_sign(self, c: int, tails: FrozenSet[int]) -> int:
        """+1 when the over-strand exit slot is one counterclockwise step
        past the under-strand exit slot.  ``tails`` is not checked: the skein
        engines call this inside their loops with link orientations."""
        u_out = 0 if 4 * c + 0 in tails else 2
        o_out = 1 if 4 * c + 1 in tails else 3
        return 1 if (o_out - u_out) % 4 == 1 else -1

    def writhe(self) -> int:
        """The writhe of a knot, the same along either orientation; a link
        raises as :meth:`orientations` does."""
        tails = self.orientations()[0]
        return sum(self.crossing_sign(c, tails) for c in range(self.n))
