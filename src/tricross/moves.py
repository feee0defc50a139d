"""Local moves on triple-crossing projections and diagrams.

All moves here are built from one surgery, the *slide*: at crossing ``c``,
anchored at slot ``s``, the four edge ends at slots ``s+2 .. s+5`` are rotated
by two positions while the ends at ``s`` and ``s+1`` stay put.  Geometrically
the strand through slots ``s+2, s+5`` sweeps across the small face incident to
the sector between slots ``s`` and ``s+1``.

* ``M1``: the face is a monogon (a loop edge joining slots ``s, s+1``).
* ``M2``: the face is a bigon between two distinct crossings.

Both are involutions on projections and never change the crossing count.
Enumeration counts projections up to spherical isotopy, mirror image, and
these two moves.

On diagrams, the monogon slide with all height words kept is a knot-preserving
move whenever the sliding strand passes the crossing as the top or the bottom
strand; ``JR`` is the top variant and ``JR'`` the bottom one.  The move is
its own inverse (apply it at the image site to undo it).

Every move kind is one row of one table, ``_MOVES``, read by one site scan
and by one applier, :func:`apply_move`; knot moves proven later become
further rows of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .maps import DiagramError, TripleDiagram, TripleProjection

M1 = "M1"
M2 = "M2"
JR = "JR"
JR_PRIME = "JR'"


class StaleSiteError(DiagramError):
    """The move site no longer matches the current object."""


@dataclass(frozen=True)
class MoveSite:
    kind: str  # M1, M2, JR, JR'
    crossing: int  # crossing whose attachments change
    slot: int  # anchor slot: the preserved sector is (slot, slot + 1)


def _slide_alpha(alpha: List[int], n: int, c: int, s: int) -> List[int]:
    ends = [6 * c + (s + k) % 6 for k in range(6)]
    pi = {ends[2]: ends[4], ends[3]: ends[5], ends[4]: ends[2], ends[5]: ends[3]}
    out = [0] * (6 * n)
    for d in range(6 * n):
        out[pi.get(d, d)] = pi.get(alpha[d], alpha[d])
    return out


def _is_monogon_anchor(p: TripleProjection, c: int, s: int) -> bool:
    return p.alpha[6 * c + s] == 6 * c + (s + 1) % 6


def _is_bigon_anchor(p: TripleProjection, c: int, s: int) -> bool:
    """Slots ``s, s+1`` of ``c`` bound a bigon with another crossing: the
    darts they are paired with lie on one crossing other than ``c``, the
    first one slot counterclockwise after the second."""
    u = p.alpha[6 * c + s]
    v = p.alpha[6 * c + (s + 1) % 6]
    return u // 6 != c and u == 6 * (v // 6) + (v + 1) % 6


def _slide_projection(p: TripleProjection, c: int, s: int) -> Optional[TripleProjection]:
    """Apply the slide; None when the result is not a valid knot shadow."""
    q = TripleProjection(_slide_alpha(p.alpha, p.n, c, s), p.n)
    if not q.is_spherical():
        return None
    if q.num_components() != p.num_components():
        return None
    return q


# Per move kind: the anchor rule, the face slid across (named when a site is
# stale) and the level that the sliding strand, strand ``(s + 2) % 3`` of the
# crossing, must have on a diagram; None for a projection move.
_MOVES = {
    M1: (_is_monogon_anchor, "monogon", None),
    M2: (_is_bigon_anchor, "bigon", None),
    JR: (_is_monogon_anchor, "monogon", "T"),
    JR_PRIME: (_is_monogon_anchor, "monogon", "B"),
}


def _sites(p: TripleProjection, heights: Optional[Sequence[str]],
           kinds: Sequence[str]) -> List[MoveSite]:
    """The applicable sites of ``kinds`` on ``p`` with height words ``heights``
    (None on a projection), by kind, then crossing, then slot."""
    sites = []
    for kind in kinds:
        is_anchor, _, level = _MOVES[kind]
        sites += [MoveSite(kind, c, s) for c in range(p.n) for s in range(6)
                  if is_anchor(p, c, s)
                  and (level is None or heights[c][(s + 2) % 3] == level)
                  and _slide_projection(p, c, s) is not None]
    return sites


def find_m_sites(p: TripleProjection) -> List[MoveSite]:
    """All applicable M1 and M2 sites of a projection."""
    return _sites(p, None, (M1, M2))


def find_jr_sites(d: TripleDiagram) -> List[MoveSite]:
    """All applicable JR and JR' sites of a diagram."""
    return _sites(d.projection, d.heights, (JR, JR_PRIME))


def apply_move(
    obj: Union[TripleProjection, TripleDiagram], site: MoveSite
) -> Union[TripleProjection, TripleDiagram]:
    """The slide at ``site``: a projection for an M1/M2 site, and for a
    JR/JR' site a validated diagram with every height word kept.  A site
    that does not match ``obj`` raises :class:`StaleSiteError`."""
    if site.kind not in _MOVES:
        raise DiagramError(f"unknown move kind {site.kind!r}")
    is_anchor, face, level = _MOVES[site.kind]
    if not isinstance(obj, TripleProjection if level is None else TripleDiagram):
        raise DiagramError("M moves apply to projections" if level is None
                           else "J moves apply to diagrams")
    p = obj if level is None else obj.projection
    c, s = site.crossing, site.slot
    if not (0 <= c < p.n and 0 <= s < 6 and is_anchor(p, c, s)):
        raise StaleSiteError(f"no {face} at the referenced anchor")
    if level is not None and obj.heights[c][(s + 2) % 3] != level:
        raise StaleSiteError(f"the sliding strand is not at level {level}")
    q = _slide_projection(p, c, s)
    if q is None:
        raise StaleSiteError("slide at the referenced anchor is not applicable")
    if level is None:
        return q
    out = TripleDiagram(q, obj.heights)
    out.validate()
    return out


def apply_m(p: TripleProjection, site: MoveSite) -> TripleProjection:
    """:func:`apply_move` for an M1 or M2 site."""
    if site.kind not in (M1, M2):
        raise DiagramError(f"apply_m expects an M1/M2 site, got {site.kind!r}")
    return apply_move(p, site)
