"""Combinatorial maps for triple-crossing projections and diagrams.

A projection with ``n`` crossings is stored as a rotation system on the
``6n`` half-edges ("darts"): dart ``6c + s`` is slot ``s`` (counterclockwise,
0-based) of crossing ``c``.  The rotation permutation is implicit (slot
``s -> s+1 mod 6``); the edge pairing ``alpha`` is an explicit fixed-point-free
involution.  Faces are orbits of ``sigma o alpha``.

Strands pass straight through a crossing: slot ``s`` and slot ``s+3`` carry
the same strand, so crossing ``c`` has three strands ``0, 1, 2`` occupying
slot pairs ``(0,3), (1,4), (2,5)``.  A diagram adds a height word per
crossing: ``heights[c][j]`` is the level (``T``/``M``/``B``) of strand ``j``.

Double (classical, 4-valent) diagrams use the same scheme with darts
``4c + s`` and the convention that the under-strand occupies slots 0 and 2.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

HEIGHT_LETTERS = ("T", "M", "B")
HEIGHT_RANK = {"T": 2, "M": 1, "B": 0}


class DiagramError(ValueError):
    """Raised for structurally invalid projections or diagrams."""


class InternalConsistencyError(RuntimeError):
    """Raised when a property the theory guarantees fails on concrete data."""


# ---------------------------------------------------------------------------
# dart helpers (6-valent)
# ---------------------------------------------------------------------------


def t_sigma(d: int) -> int:
    """Rotation: next dart counterclockwise around the crossing."""
    return 6 * (d // 6) + (d % 6 + 1) % 6


def t_opposite(d: int) -> int:
    """The dart of the same strand passage on the far side of the crossing."""
    return 6 * (d // 6) + (d % 6 + 3) % 6


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


def _orbits(n: int, gens: Iterable) -> List[List[int]]:
    """Orbits of a group generated by callables on ``range(n)``."""
    gens = list(gens)
    seen = [False] * n
    out: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        stack = [start]
        while stack:
            d = stack.pop()
            for g in gens:
                e = g(d)
                if not seen[e]:
                    seen[e] = True
                    orb.append(e)
                    stack.append(e)
        orb.sort()
        out.append(orb)
    return out


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


class TripleProjection:
    """A 6-valent combinatorial map; ``n == 0`` encodes the crossingless unknot."""

    __slots__ = ("n", "alpha")

    def __init__(self, alpha: Sequence[int], n: Optional[int] = None):
        alpha = tuple(alpha)
        if n is None:
            if len(alpha) % 6:
                raise DiagramError("dart count must be a multiple of 6")
            n = len(alpha) // 6
        if len(alpha) != 6 * n:
            raise DiagramError("pairing length does not match crossing count")
        for d, e in enumerate(alpha):
            if not 0 <= e < 6 * n or alpha[e] != d or e == d:
                raise DiagramError("pairing is not a fixed-point-free involution")
        self.n = n
        self.alpha = alpha

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TripleProjection) and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash(("P", self.alpha))

    def __repr__(self) -> str:
        return f"TripleProjection(n={self.n})"

    # -- structure ---------------------------------------------------------

    def faces(self) -> List[List[int]]:
        """Orbits of the face permutation ``sigma o alpha``."""
        perm = [t_sigma(self.alpha[d]) for d in range(6 * self.n)]
        return _cycles(perm)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(_orbits(6 * self.n, (t_sigma, lambda d: self.alpha[d]))) == 1

    def is_spherical(self) -> bool:
        """Euler check V - E + F = 2 from face tracing (requires connectivity)."""
        if self.n == 0:
            return True
        return self.is_connected() and len(self.faces()) == 2 * self.n + 2

    def validate(self) -> None:
        if self.n == 0:
            return
        if not self.is_connected():
            raise DiagramError("projection is disconnected")
        if len(self.faces()) != 2 * self.n + 2:
            raise DiagramError("rotation system is not spherical")

    def strand_components(self) -> List[List[int]]:
        """Connected strand traces: orbits of the pairing and slot -> slot+3."""
        if self.n == 0:
            return []
        return _orbits(6 * self.n, (t_opposite, lambda d: self.alpha[d]))

    def num_components(self) -> int:
        if self.n == 0:
            return 1
        return len(self.strand_components())

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

    def mirror(self) -> "TripleProjection":
        """Reverse every rotation (slot ``s -> -s mod 6`` at each crossing)."""
        def m(d: int) -> int:
            return 6 * (d // 6) + (6 - d % 6) % 6

        alpha = [0] * (6 * self.n)
        for d, e in enumerate(self.alpha):
            alpha[m(d)] = m(e)
        return TripleProjection(alpha, self.n)

    @classmethod
    def unknot(cls) -> "TripleProjection":
        return cls((), 0)


class TripleDiagram:
    """A projection plus a height word at every crossing; knots only."""

    __slots__ = ("projection", "heights")

    def __init__(self, projection: TripleProjection, heights: Sequence[str]):
        heights = tuple(heights)
        if len(heights) != projection.n:
            raise DiagramError("one height word per crossing required")
        for w in heights:
            if sorted(w) != ["B", "M", "T"]:
                raise DiagramError(f"height word {w!r} is not a permutation of T, M, B")
        self.projection = projection
        self.heights = heights

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

    def mirror(self) -> "TripleDiagram":
        """Planar reflection: rotations reverse, strands 1 and 2 swap slots."""
        proj = self.projection.mirror()
        heights = tuple(w[0] + w[2] + w[1] for w in self.heights)
        return TripleDiagram(proj, heights)

    @classmethod
    def unknot(cls) -> "TripleDiagram":
        return cls(TripleProjection.unknot(), ())


# ---------------------------------------------------------------------------
# natural orientations
# ---------------------------------------------------------------------------

Orientation = FrozenSet[int]  # the set of darts pointing away from their crossing


def natural_orientations(diagram: TripleDiagram) -> List[Orientation]:
    """Both strand directions of a knot diagram, checked for in-out alternation.

    Each returned orientation is the set of "tail" darts (strand leaves the
    crossing through them).  For every valid knot diagram there are exactly
    two, mutual reversals of each other; anything else is flagged as an
    internal inconsistency rather than returned.
    """
    n = diagram.n
    if n == 0:
        return [frozenset(), frozenset()]
    alpha = diagram.alpha
    total = 6 * n
    seen = [False] * total
    orientations: List[Orientation] = []
    for start in range(total):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = t_opposite(alpha[d])
        if len(orbit) != 3 * n:
            raise InternalConsistencyError("strand trace is not a single knot component")
        tails = frozenset(orbit)
        for c in range(n):
            parity = {6 * c + s in tails for s in (0, 2, 4)}
            parity_odd = {6 * c + s in tails for s in (1, 3, 5)}
            if parity != {True} and parity != {False}:
                break
            if parity_odd == parity:
                break
        else:
            orientations.append(tails)
    if len(orientations) != 2:
        raise InternalConsistencyError(
            f"expected exactly 2 natural orientations, found {len(orientations)}"
        )
    return orientations


def reverse_orientation(diagram: TripleDiagram, o: Orientation) -> Orientation:
    """The opposite traversal direction: every edge flips to its twin dart."""
    return frozenset(diagram.alpha[d] for d in o)


# ---------------------------------------------------------------------------
# double (4-valent) diagrams
# ---------------------------------------------------------------------------


def d_sigma(d: int) -> int:
    return 4 * (d // 4) + (d % 4 + 1) % 4


def d_opposite(d: int) -> int:
    return 4 * (d // 4) + (d % 4 + 2) % 4


class DoubleDiagram:
    """Classical diagram: 4-valent map, under-strand at slots 0 and 2."""

    __slots__ = ("n", "alpha")

    def __init__(self, alpha: Sequence[int], n: Optional[int] = None):
        alpha = tuple(alpha)
        if n is None:
            if len(alpha) % 4:
                raise DiagramError("dart count must be a multiple of 4")
            n = len(alpha) // 4
        if len(alpha) != 4 * n:
            raise DiagramError("pairing length does not match crossing count")
        for d, e in enumerate(alpha):
            if not 0 <= e < 4 * n or alpha[e] != d or e == d:
                raise DiagramError("pairing is not a fixed-point-free involution")
        self.n = n
        self.alpha = alpha

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DoubleDiagram) and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash(("DD", self.alpha))

    def __repr__(self) -> str:
        return f"DoubleDiagram(n={self.n})"

    @classmethod
    def unknot(cls) -> "DoubleDiagram":
        return cls((), 0)

    @classmethod
    def from_pd(cls, code: Sequence[Sequence[int]]) -> "DoubleDiagram":
        """Build from a PD-style code: per crossing four edge labels,
        counterclockwise, under-strand at positions 0 and 2."""
        n = len(code)
        where: Dict[int, List[int]] = {}
        for c, quad in enumerate(code):
            if len(quad) != 4:
                raise DiagramError("each PD crossing needs four edge labels")
            for s, lab in enumerate(quad):
                where.setdefault(lab, []).append(4 * c + s)
        alpha = [0] * (4 * n)
        for lab, darts in where.items():
            if len(darts) != 2:
                raise DiagramError(f"edge label {lab} does not appear exactly twice")
            alpha[darts[0]] = darts[1]
            alpha[darts[1]] = darts[0]
        dd = cls(alpha, n)
        dd.validate()
        return dd

    def faces(self) -> List[List[int]]:
        perm = [d_sigma(self.alpha[d]) for d in range(4 * self.n)]
        return _cycles(perm)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(_orbits(4 * self.n, (d_sigma, lambda d: self.alpha[d]))) == 1

    def validate(self) -> None:
        if self.n == 0:
            return
        if not self.is_connected():
            raise DiagramError("diagram is disconnected")
        if len(self.faces()) != self.n + 2:
            raise DiagramError("rotation system is not spherical")

    def strand_components(self) -> List[List[int]]:
        if self.n == 0:
            return []
        return _orbits(4 * self.n, (d_opposite, lambda d: self.alpha[d]))

    def num_components(self) -> int:
        if self.n == 0:
            return 1
        return len(self.strand_components())

    def mirror(self) -> "DoubleDiagram":
        """Reverse rotations keeping over/under slots (the mirror knot)."""
        def m(d: int) -> int:
            return 4 * (d // 4) + (4 - d % 4) % 4

        alpha = [0] * (4 * self.n)
        for d, e in enumerate(self.alpha):
            alpha[m(d)] = m(e)
        return DoubleDiagram(alpha, self.n)

    # -- orientations and writhe -------------------------------------------

    def orientations(self) -> List[FrozenSet[int]]:
        """Tail-dart sets for each traversal direction of a knot diagram."""
        if self.n == 0:
            return [frozenset(), frozenset()]
        total = 4 * self.n
        seen = [False] * total
        out: List[FrozenSet[int]] = []
        for start in range(total):
            if seen[start]:
                continue
            orbit = []
            d = start
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                d = d_opposite(self.alpha[d])
            out.append(frozenset(orbit))
        if len(out) != 2:
            raise DiagramError("not a knot: more than one component")
        return out

    def crossing_sign(self, c: int, tails: FrozenSet[int]) -> int:
        """+1 when the over-strand exit slot is one counterclockwise step
        past the under-strand exit slot."""
        u_out = 0 if 4 * c + 0 in tails else 2
        o_out = 1 if 4 * c + 1 in tails else 3
        return 1 if (o_out - u_out) % 4 == 1 else -1

    def writhe(self, tails: FrozenSet[int]) -> int:
        return sum(self.crossing_sign(c, tails) for c in range(self.n))
