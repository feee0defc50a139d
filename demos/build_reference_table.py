"""Regenerate the bundled reference-knot table.

The package ships ``src/tricross/data/reference_knots.csv`` with the Jones,
Alexander and Kauffman F polynomials (Jones and F mirror-folded) of the 32
knots the identifier knows about.  Every row
is computed here from scratch — rational (2-bridge) knots from their twist
vectors and the remaining knots from braid closures — using the package's own
bracket and Alexander oracles, so the table is reproducible rather than
transcribed.

Run from the repository root:

    python3 demos/build_reference_table.py [output.csv]

Without an argument it overwrites the bundled copy in the source tree.
Exits 1 when the regenerated rows differ from the bundled copy.
"""

import os
import sys

from tricross import load_reference
from tricross.tables import reference_rows, write_reference_csv

BUNDLED = os.path.join(
    os.path.dirname(__file__), "..", "src", "tricross", "data",
    "reference_knots.csv",
)


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.normpath(BUNDLED)
    # read the bundled copy before it may be overwritten
    bundled = {r.name: r.fingerprint for r in load_reference()}
    rows = reference_rows()
    write_reference_csv(rows, out)
    print(f"wrote {len(rows)} reference knots to {out}")

    # sanity: the freshly computed rows agree with what was bundled
    fresh = {r.name: r.fingerprint for r in rows}
    if bundled == fresh:
        print("regenerated table matches the bundled copy")
        return 0
    diff = {k for k in bundled.keys() | fresh.keys() if bundled.get(k) != fresh.get(k)}
    print(f"WARNING: table changed for {sorted(diff)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
