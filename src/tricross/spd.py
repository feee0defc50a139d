"""The sPD text code for triple-crossing projections and diagrams.

Grammar (ASCII, whitespace ignored)::

    sPD[X[e1,e2,e3,e4,e5,e6|HHH], X[...], ...]

Each ``X[...]`` lists the six edge labels of one crossing counterclockwise;
labels are decimal integers >= 1 and every label appears exactly twice in the
whole code (loops at a single crossing are allowed).  The optional ``|HHH``
height word is a permutation of ``T``, ``M``, ``B``: letter ``i`` is the
level of the strand through slots ``i`` and ``i+3``.  Height words are
all-or-none across crossings.  ``sPD[O]`` denotes the crossingless unknot.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple, Union

from .maps import DiagramError, TripleDiagram, TripleProjection

UNKNOT_CODE = "sPD[O]"

_CROSSING_RE = re.compile(r"X\[([0-9]+(?:,[0-9]+)*)(?:\|([TMB]{3}))?\]")


class SpdSyntaxError(DiagramError):
    """The text does not conform to the sPD grammar."""


def parse_spd(text: str) -> Union[TripleProjection, TripleDiagram]:
    compact = "".join(text.split())
    if compact == UNKNOT_CODE:
        return TripleDiagram.unknot()
    if not (compact.startswith("sPD[") and compact.endswith("]")):
        raise SpdSyntaxError("sPD code must be of the form sPD[...]")
    body = compact[4:-1]
    if not body:
        raise SpdSyntaxError("empty sPD code has no crossings")

    crossings: List[Tuple[List[int], str]] = []
    pos = 0
    while pos < len(body):
        m = _CROSSING_RE.match(body, pos)
        if not m:
            raise SpdSyntaxError(f"bad crossing syntax at: {body[pos:pos + 24]!r}")
        labels = [int(x) for x in m.group(1).split(",")]
        if any(lab < 1 for lab in labels):
            raise SpdSyntaxError("edge labels must be >= 1")
        crossings.append((labels, m.group(2)))
        pos = m.end()
        if pos < len(body):
            if body[pos] != ",":
                raise SpdSyntaxError("crossings must be comma-separated")
            pos += 1

    words = [w for _, w in crossings]
    if any(w is not None for w in words) and any(w is None for w in words):
        raise SpdSyntaxError("height words must be present at all crossings or none")
    try:
        proj = TripleProjection.from_labels([labels for labels, _ in crossings])
        if words[0] is None:
            return proj
        diagram = TripleDiagram(proj, words)
    except DiagramError as exc:
        raise SpdSyntaxError(str(exc)) from exc
    diagram.validate()
    return diagram


def serialize_spd(obj: Union[TripleProjection, TripleDiagram]) -> str:
    """Canonical text: edge labels numbered by first appearance in slot order."""
    if isinstance(obj, TripleDiagram):
        proj, heights = obj.projection, obj.heights
    else:
        proj, heights = obj, None
    if proj.n == 0:
        return UNKNOT_CODE
    label: Dict[int, int] = {}
    nxt = 1
    parts = []
    for c in range(proj.n):
        labs = []
        for s in range(6):
            d = 6 * c + s
            key = min(d, proj.alpha[d])
            if key not in label:
                label[key] = nxt
                nxt += 1
            labs.append(str(label[key]))
        word = f"|{heights[c]}" if heights is not None else ""
        parts.append(f"X[{','.join(labs)}{word}]")
    return f"sPD[{','.join(parts)}]"


def to_json(obj: Union[TripleProjection, TripleDiagram]) -> str:
    """JSON export with a stable field order."""
    if isinstance(obj, TripleDiagram):
        proj, heights = obj.projection, obj.heights
        kind = "diagram"
    else:
        proj, heights = obj, None
        kind = "projection"
    record = {
        "kind": kind,
        "n": proj.n,
        "pairing": list(proj.alpha),
        "crossings": [
            {
                "id": c,
                "slots": [proj.alpha[6 * c + s] for s in range(6)],
                **({"heights": heights[c]} if heights is not None else {}),
            }
            for c in range(proj.n)
        ],
        "spd": serialize_spd(obj),
    }
    return json.dumps(record)
