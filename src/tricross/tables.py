"""Reference knots, naming, conjecture reporting, and table/TikZ emission.

The bundled reference table is generated by this package's own oracles from
rational-tangle and braid-closure planar diagrams; nothing is copied from
external databases, so every number in the repository is reproducible by the
repository (see ``demos/build_reference_table.py``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .alexander import alexander
from .enumeration import ClassKey, fold_jones, fold_kauffman
from .jones import bracket_jones
from .kauffman import kauffman_f
from .laurent import HalfLaurent, IntLaurent, Laurent2, breadth, is_monic
from .maps import DiagramError, DoubleDiagram, TripleDiagram


# ---------------------------------------------------------------------------
# Planar-diagram constructors
# ---------------------------------------------------------------------------


def rational_knot_pd(twists: Sequence[int]) -> List[List[int]]:
    """PD code of the 2-bridge knot with alternating twist vector ``twists``.

    The vector is read inside out: ``twists[0]`` horizontal half-twists on the
    right pair of tangle ends, then ``twists[1]`` vertical half-twists on the
    bottom pair, alternating; the tangle is then closed with the numerator
    closure.  With all entries positive the diagram is alternating and the
    knot is the 2-bridge knot of the continued fraction
    ``twists[-1] + 1/(twists[-2] + 1/( ... + 1/twists[0]))``.
    """
    if not twists or any(a < 1 for a in twists):
        raise DiagramError("twist vector entries must be positive")
    labels = itertools.count(1)
    # 0-tangle: two horizontal strands, so each left end is its right end's arc
    nw = ne = next(labels)
    sw = se = next(labels)
    crossings: List[List[int]] = []
    # the innermost group must act on distinct strands, hence horizontally
    horizontal = True
    for a in twists:
        for _ in range(a):
            if horizontal:
                new_ne, new_se = next(labels), next(labels)
                # right-hand ends twist: alternating, under strand enters at ne
                crossings.append([ne, new_ne, new_se, se])
                ne, se = new_ne, new_se
            else:
                new_sw, new_se = next(labels), next(labels)
                crossings.append([sw, se, new_se, new_sw])
                sw, se = new_sw, new_se
        horizontal = not horizontal
    if len(twists) % 2:
        # ended horizontally: numerator closure, nw-ne and sw-se
        subs = {ne: nw, se: sw}
    else:
        # ended vertically: denominator closure, nw-sw and ne-se
        subs = {sw: nw, se: ne}
    pd = [[subs.get(x, x) for x in c] for c in crossings]
    return pd


def braid_closure_pd(strands: int, word: Sequence[int]) -> List[List[int]]:
    """PD code of the closure of a braid word (letter ``+i``/``-i`` = sigma_i^??1)."""
    if strands < 2 or not word:
        raise DiagramError("need at least 2 strands and a nonempty word")
    labels = itertools.count(1)
    top = [next(labels) for _ in range(strands)]
    cur = list(top)
    crossings: List[List[int]] = []
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise DiagramError(f"braid letter {letter} out of range")
        a, b = cur[i], cur[i + 1]
        c, d = next(labels), next(labels)
        if letter > 0:
            # sigma_i: strand i+1 passes over strand i
            crossings.append([a, b, d, c])
        else:
            crossings.append([b, d, c, a])
        cur[i], cur[i + 1] = c, d
    subs = dict(zip(cur, top))
    pd = [[subs.get(x, x) for x in c] for c in crossings]
    return pd


def continued_fraction(twists: Sequence[int]) -> Tuple[int, int]:
    """Fraction p/q of a twist vector, read inside out."""
    p, q = twists[0], 1
    for a in twists[1:]:
        p, q = a * p + q, p
    return p, q


# ---------------------------------------------------------------------------
# Reference table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceKnot:
    name: str
    c2: int
    alternating: bool
    jones: str  # mirror-folded textual form
    alexander: str
    kauffman: str  # mirror-folded Kauffman F

    @property
    def fingerprint(self) -> ClassKey:
        return (self.jones, self.alexander, self.kauffman)


# Standard knots with their constructions: 2-bridge twist vectors or braids.
RATIONAL_KNOTS: Dict[str, Sequence[int]] = {
    "3_1": (3,),
    "4_1": (2, 2),
    "5_1": (5,),
    "5_2": (3, 2),
    "6_1": (4, 2),
    "6_2": (3, 1, 2),
    "6_3": (2, 1, 1, 2),
    "7_1": (7,),
    "7_2": (5, 2),
    "7_3": (4, 3),
    "7_4": (3, 1, 3),
    "7_5": (3, 2, 2),
    "7_6": (2, 2, 1, 2),
    "7_7": (2, 1, 1, 1, 2),
    "8_1": (6, 2),
    "8_2": (5, 1, 2),
    "8_3": (4, 4),
    "8_4": (4, 1, 3),
    "8_6": (3, 3, 2),
    "8_7": (4, 1, 1, 2),
    "8_8": (2, 1, 3, 2),
    "8_9": (3, 1, 1, 3),
    "8_11": (3, 2, 1, 2),
    "8_12": (2, 2, 2, 2),
    "8_13": (3, 1, 1, 1, 2),
    "8_14": (2, 2, 1, 1, 2),
    "9_1": (9,),
    "9_2": (7, 2),
    "10_1": (8, 2),
}

BRAID_KNOTS: Dict[str, Tuple[int, Sequence[int]]] = {
    "8_19": (3, (1, 2) * 4),
    "8_20": (3, (1, 1, 1, -2, -1, -1, -1, -2)),
    "10_124": (3, (1, 2) * 5),
}

NON_ALTERNATING = {"8_19", "8_20", "10_124"}


def _c2_of(name: str) -> int:
    return int(name.split("_")[0])


def _reference_knot(name: str, dd: DoubleDiagram, a: IntLaurent) -> ReferenceKnot:
    return ReferenceKnot(
        name,
        _c2_of(name),
        name not in NON_ALTERNATING,
        fold_jones(bracket_jones(dd)),
        str(a),
        fold_kauffman(kauffman_f(dd)),
    )


def reference_rows() -> List[ReferenceKnot]:
    """Recompute the reference table from the constructions above."""
    rows = []
    for name, twists in sorted(RATIONAL_KNOTS.items()):
        pd = rational_knot_pd(twists)
        dd = DoubleDiagram.from_pd(pd)
        a = alexander(dd)
        p, _ = continued_fraction(twists)
        det = abs(sum(c * (-1) ** abs(e) for e, c in a.int_coeffs().items()))
        if det != p:
            raise DiagramError(f"{name}: determinant {det} != fraction {p}")
        rows.append(_reference_knot(name, dd, a))
    for name, (strands, word) in sorted(BRAID_KNOTS.items()):
        dd = DoubleDiagram.from_pd(braid_closure_pd(strands, word))
        rows.append(_reference_knot(name, dd, alexander(dd)))
    rows.sort(key=lambda r: (r.c2, r.name))
    return rows


REFERENCE_HEADER = ["name", "c2", "alternating", "jones", "alexander", "kauffman"]


def write_reference_csv(rows: List[ReferenceKnot], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REFERENCE_HEADER)
        for r in rows:
            w.writerow([r.name, r.c2, int(r.alternating), r.jones, r.alexander,
                        r.kauffman])


def load_reference(path: Optional[str] = None) -> List[ReferenceKnot]:
    """Load the reference CSV (the bundled copy when no path is given).

    Every row carries the whole class key.  A row with an empty
    ``kauffman`` cell, or with a polynomial that does not parse, is refused
    with a ``DiagramError`` that names it."""
    if path is None:
        from importlib import resources

        text = resources.files("tricross.data").joinpath("reference_knots.csv").read_text()
    else:
        with open(path) as f:
            text = f.read()
    rows: List[ReferenceKnot] = []
    names = set()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return rows
    if header != REFERENCE_HEADER:
        raise DiagramError(f"bad reference header: {header}")
    for rec in reader:
        if len(rec) != len(REFERENCE_HEADER):
            raise DiagramError(f"malformed reference row: {rec}")
        name, c2, alt, jones, alex, kauffman = rec
        if name in names:
            raise DiagramError(f"duplicate reference name {name}")
        names.add(name)
        if not kauffman:
            raise DiagramError(f"{name}: empty kauffman cell")
        try:
            a = IntLaurent.parse(alex)
            HalfLaurent.parse(jones)  # validates syntax
            Laurent2.parse(kauffman)
        except ValueError as exc:
            raise DiagramError(f"{name}: {exc}") from None
        if a.invert_t() != a or sum(a.int_coeffs().values()) != 1:
            raise DiagramError(f"{name}: Alexander normalization violated")
        rows.append(
            ReferenceKnot(name, int(c2), bool(int(alt)), jones, alex, kauffman))
    return rows


def identify(fingerprint: ClassKey, refs: List[ReferenceKnot]) -> Optional[str]:
    """The name of the reference knot whose key (folded Jones, Alexander,
    folded Kauffman F) is ``fingerprint``; the joined candidates when several
    are; None when none is."""
    matches = sorted(r.name for r in refs if r.fingerprint == fingerprint)
    if len(matches) > 1:
        return "ambiguous:" + ",".join(matches)
    return matches[0] if matches else None


# ---------------------------------------------------------------------------
# Conjecture report
# ---------------------------------------------------------------------------

APPLICABLE_HOLDS = "applicable-holds"
APPLICABLE_VIOLATED = "applicable-violated"
NOT_APPLICABLE = "not-applicable(monic)"


@dataclass
class ClassVerdict:
    name: Optional[str]
    c3: int
    breadth: int
    monic: bool
    verdict: str
    weak_bound_holds: bool  # c3 >= breadth
    c2_bound_holds: Optional[bool]  # c3 >= c2/3, when named
    alternating_bound_holds: Optional[bool]  # c3 >= c2/2, when alternating


@dataclass
class ConjectureReport:
    verdicts: List[ClassVerdict]

    @property
    def violated(self) -> bool:
        return any(
            v.verdict == APPLICABLE_VIOLATED
            or not v.weak_bound_holds
            or v.c2_bound_holds is False
            or v.alternating_bound_holds is False
            for v in self.verdicts
        )

    def to_json(self) -> str:
        return json.dumps({"violated": self.violated,
                           "classes": [asdict(v) for v in self.verdicts]})


def conjecture_report(classes, refs: List[ReferenceKnot]) -> ConjectureReport:
    """Evaluate the breadth conjecture and crossing-number bounds on classes.

    ``classes`` is an iterable of objects with ``alexander`` (text), ``c3``,
    and a ``fingerprint`` tuple, as produced by ``enumeration.classify``.
    """
    by_name = {r.name: r for r in refs}
    verdicts = []
    for kc in classes:
        a = IntLaurent.parse(kc.alexander)
        b = breadth(a)
        monic = is_monic(a)
        if monic:
            verdict = NOT_APPLICABLE
        elif kc.c3 > b:
            verdict = APPLICABLE_HOLDS
        else:
            verdict = APPLICABLE_VIOLATED
        name = identify(kc.fingerprint, refs)
        ref = by_name.get(name) if name else None
        c2_ok = None
        alt_ok = None
        if ref is not None:
            c2_ok = kc.c3 >= ref.c2 / 3
            if ref.alternating:
                alt_ok = kc.c3 >= ref.c2 / 2
        verdicts.append(
            ClassVerdict(name, kc.c3, b, monic, verdict, kc.c3 >= b, c2_ok, alt_ok)
        )
    verdicts.sort(key=lambda v: (v.c3, v.name or "~", v.breadth))
    return ConjectureReport(verdicts)


# ---------------------------------------------------------------------------
# Table and TikZ emission
# ---------------------------------------------------------------------------


def emit_table(classes, refs: List[ReferenceKnot], fmt: str = "json") -> str:
    rows = []
    for kc in sorted(classes, key=lambda k: (k.c3, k.jones_folded)):
        rows.append(
            {
                "c3": kc.c3,
                "name": identify(kc.fingerprint, refs) or "",
                "jones": kc.jones_folded,
                "alexander": kc.alexander,
                "kauffman": kc.kauffman_folded,
                "witness": kc.witness_spd,
            }
        )
    if fmt == "json":
        return "\n".join(json.dumps(r) for r in rows) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        w = csv.writer(out)
        header = ["c3", "name", "jones", "alexander", "kauffman", "witness"]
        w.writerow(header)
        for r in rows:
            w.writerow([r[k] for k in header])
        return out.getvalue()
    if fmt == "latex":
        lines = [
            "\\begin{tabular}{lllll}",
            "c3 & name & Jones & Alexander & Kauffman F \\\\ \\hline",
        ]
        for r in rows:
            lines.append(
                f"{r['c3']} & {r['name']} & ${r['jones']}$ & ${r['alexander']}$"
                f" & ${r['kauffman']}$ \\\\"
            )
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise DiagramError(f"unknown table format {fmt!r}")


_HEIGHT_COLOR = {"T": "red", "M": "black", "B": "green"}


def emit_tikz(d: TripleDiagram) -> str:
    """Standalone TikZ picture; the bottom strand at each crossing is green,
    the top strand red, the middle strand black."""
    n = d.n
    lines = ["\\begin{tikzpicture}[scale=1.0,line width=0.8pt]"]
    if n == 0:
        lines.append("  \\draw (0,0) circle (1);")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines) + "\n"
    centers = []
    radius = 0.0 if n == 1 else 2.5
    for c in range(n):
        ang = 2 * math.pi * c / n
        centers.append((radius * math.cos(ang), radius * math.sin(ang)))

    def stub(dart: int) -> Tuple[float, float]:
        c, s = dart // 6, dart % 6
        cx, cy = centers[c]
        a = math.pi * s / 3
        return (cx + 0.9 * math.cos(a), cy + 0.9 * math.sin(a))

    for c in range(n):
        cx, cy = centers[c]
        word = d.heights[c]
        for j in range(3):
            color = _HEIGHT_COLOR[word[j]]
            x1, y1 = stub(6 * c + j)
            x2, y2 = stub(6 * c + j + 3)
            lines.append(
                f"  \\draw[{color}] ({x1:.3f},{y1:.3f}) -- ({x2:.3f},{y2:.3f});"
            )
    seen = set()
    for dart in range(6 * n):
        mate = d.projection.alpha[dart]
        key = (min(dart, mate), max(dart, mate))
        if key in seen:
            continue
        seen.add(key)
        x1, y1 = stub(dart)
        x2, y2 = stub(mate)
        lines.append(
            f"  \\draw ({x1:.3f},{y1:.3f}) .. controls "
            f"({1.6 * x1:.3f},{1.6 * y1:.3f}) and ({1.6 * x2:.3f},{1.6 * y2:.3f}) "
            f".. ({x2:.3f},{y2:.3f});"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
