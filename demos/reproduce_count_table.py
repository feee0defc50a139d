"""Reproduce the small-census table of triple-crossing projections and knots.

Enumerates prime one-curve projections with n = 2..4 triple points, assigns
all height words, and groups the resulting diagrams into knot classes by
(mirror-folded Jones, Alexander, mirror-folded Kauffman F).  Expected output:

    n=2:  1 projection    2 new knot classes   (3_1, 4_1)
    n=3:  2 projections   2 new knot classes   (5_2, 6_1)
    n=4: 15 projections  27 new knot classes   (3 flagged composite-fingerprint,
                                                24 unflagged)

Pass a max n as the first argument to stop earlier (default 4).

    python3 demos/reproduce_count_table.py [max_n]
"""

import sys
import time

from tricross import classify, count_table, identify, reference_rows


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    refs = reference_rows()

    t0 = time.monotonic()
    run = classify(max_n)
    dt = time.monotonic() - t0

    print(f"{'n':>3} {'projections':>12} {'new knots':>10}")
    for n, projs, knots in count_table(run):
        print(f"{n:>3} {projs:>12} {knots:>10}")
    print(f"\nclassified in {dt:.1f}s")

    for kc in sorted(run.classes.values(), key=lambda k: (k.c3, k.jones_folded)):
        name = identify(kc.fingerprint, refs) or "?"
        flag = "  [composite-fingerprint]" if kc.composite else ""
        print(f"c3={kc.c3}  {name:<12} Alexander: {kc.alexander}{flag}")

    flagged = [kc for kc in run.classes.values() if kc.composite]
    if flagged:
        print(f"\n{len(flagged)} classes carry the invariants of connected sums "
              "on prime projections; they are flagged, not dropped.")


if __name__ == "__main__":
    main()
