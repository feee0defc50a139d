"""A guided tour of the invariants on one triple-crossing diagram.

Starts from the 2-triple-crossing diagram of the trefoil, deconstructs it
into an ordinary (double-crossing) diagram, and computes every invariant the
package knows about, showing along the way that the direct triple-crossing
Jones computation agrees with the classical Kauffman bracket.

    python3 demos/invariants_tour.py
"""

from tricross import (
    alexander,
    bracket_jones,
    convert_to_double,
    derive_triple_relation,
    homfly,
    jones_triple,
    kauffman_f,
    parse_spd,
    serialize_spd,
)
from tricross.laurent import breadth, is_monic
from tricross.quotients import hom_counts, permutation_group

TREFOIL = "sPD[X[5,4,3,2,1,5|TMB],X[6,2,3,4,1,6|TMB]]"


def main() -> None:
    d = parse_spd(TREFOIL)
    print(f"diagram: {serialize_spd(d)}")
    print(f"triple crossings: {d.n}")

    rel = derive_triple_relation()
    print("\nresolution coefficients (positive class):",
          sorted(str(c) for c in rel.coefficient_multiset("x")))

    v = jones_triple(d)
    print(f"\nJones (direct, via triple-crossing resolution): {v}")

    dd = convert_to_double(d)
    print(f"deconstructed into {dd.n} double crossings")
    print(f"Jones (Kauffman bracket on the deconstruction): {bracket_jones(dd)}")
    assert v == bracket_jones(dd)

    a = alexander(dd)
    print(f"\nAlexander: {a}  (breadth {breadth(a)}, monic={is_monic(a)})")
    print(f"HOMFLY:    {homfly(dd)}")
    print(f"Kauffman F: {kauffman_f(dd)}")

    g = permutation_group("S3")
    print(f"\nknot-group homomorphisms into S3, by meridian class: "
          f"{hom_counts(dd, g)}")
    print("(9 in the reflection class = the classical 3-colorings of the trefoil)")


if __name__ == "__main__":
    main()
