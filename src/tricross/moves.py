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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

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


_ANCHORS = {M1: (_is_monogon_anchor, "monogon"), M2: (_is_bigon_anchor, "bigon")}


def _slide_projection(p: TripleProjection, c: int, s: int) -> Optional[TripleProjection]:
    """Apply the slide; None when the result is not a valid knot shadow."""
    q = TripleProjection(_slide_alpha(p.alpha, p.n, c, s), p.n)
    if not q.is_spherical():
        return None
    if q.num_components() != p.num_components():
        return None
    return q


def find_m_sites(p: TripleProjection) -> List[MoveSite]:
    """All applicable M1 and M2 sites of a projection."""
    return [MoveSite(kind, c, s)
            for kind, (is_anchor, _) in _ANCHORS.items()
            for c in range(p.n) for s in range(6)
            if is_anchor(p, c, s) and _slide_projection(p, c, s) is not None]


def apply_m(p: TripleProjection, site: MoveSite) -> TripleProjection:
    if site.kind not in _ANCHORS:
        raise DiagramError(f"apply_m expects an M1/M2 site, got {site.kind!r}")
    is_anchor, face = _ANCHORS[site.kind]
    if not (0 <= site.crossing < p.n and 0 <= site.slot < 6
            and is_anchor(p, site.crossing, site.slot)):
        raise StaleSiteError(f"no {face} at the referenced anchor")
    q = _slide_projection(p, site.crossing, site.slot)
    if q is None:
        raise StaleSiteError("slide at the referenced anchor is not applicable")
    return q


def _jr_sites(d: TripleDiagram, level: str, kind: str) -> List[MoveSite]:
    sites = []
    p = d.projection
    for c in range(p.n):
        for s in range(6):
            if not _is_monogon_anchor(p, c, s):
                continue
            if d.heights[c][(s + 2) % 3] != level:
                continue  # side condition: sliding arc on top (JR) / bottom (JR')
            if _slide_projection(p, c, s) is None:
                continue
            sites.append(MoveSite(kind, c, s))
    return sites


def find_jr_sites(d: TripleDiagram) -> List[MoveSite]:
    return _jr_sites(d, "T", JR) + _jr_sites(d, "B", JR_PRIME)


def _apply_jr_kind(d: TripleDiagram, site: MoveSite, level: str) -> TripleDiagram:
    q = apply_m(d.projection, MoveSite(M1, site.crossing, site.slot))
    if d.heights[site.crossing][(site.slot + 2) % 3] != level:
        raise StaleSiteError(
            "height side condition violated: sliding arc is not the "
            + ("top" if level == "T" else "bottom")
            + " strand"
        )
    out = TripleDiagram(q, list(d.heights))
    out.validate()
    return out


def apply_jr(d: TripleDiagram, site: MoveSite) -> TripleDiagram:
    if site.kind != JR:
        raise DiagramError(f"apply_jr expects a JR site, got {site.kind!r}")
    return _apply_jr_kind(d, site, "T")


def apply_jr_prime(d: TripleDiagram, site: MoveSite) -> TripleDiagram:
    if site.kind != JR_PRIME:
        raise DiagramError(f"apply_jr_prime expects a JR' site, got {site.kind!r}")
    return _apply_jr_kind(d, site, "B")


def apply_move(
    obj: Union[TripleProjection, TripleDiagram], site: MoveSite
) -> Union[TripleProjection, TripleDiagram]:
    """Dispatch on the site kind."""
    if site.kind in (M1, M2):
        if not isinstance(obj, TripleProjection):
            raise DiagramError("M moves apply to projections")
        return apply_m(obj, site)
    if not isinstance(obj, TripleDiagram):
        raise DiagramError("J moves apply to diagrams")
    return apply_jr(obj, site) if site.kind == JR else apply_jr_prime(obj, site)
