"""Check the breadth bounds on every classified knot class.

For each knot class found in the n <= 3 census (fast; pass 4 for the full
small census) this prints whether

  * c3 >  breadth(Alexander)  whenever Alexander is not monic (strict bound),
  * c3 >= breadth(Alexander)  always (weak bound),
  * c3 >= c2/3, and c3 >= c2/2 for alternating knots (via the reference table).

    python3 demos/conjecture_report_demo.py [max_n]
"""

import sys

from tricross import classify, conjecture_report, reference_rows


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    refs = reference_rows()
    run = classify(max_n)
    report = conjecture_report(list(run.classes.values()), refs)

    for v in sorted(report.verdicts, key=lambda v: (v.c3, v.name or "")):
        print(f"c3={v.c3}  {v.name or '?':<12} breadth={v.breadth} "
              f"monic={v.monic}  strict: {v.verdict:<22} "
              f"weak: {'ok' if v.weak_bound_holds else 'VIOLATED'}")

    print(f"\nviolated: {report.violated}")


if __name__ == "__main__":
    main()
