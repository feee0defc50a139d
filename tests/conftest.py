"""Shared fixtures.

The full classification (n <= 4, about two seconds) is computed once per
session and shared by the acceptance tests and anything else that needs the
class table.
"""

import pytest

from tricross import classify, enumeration, enumerate_projections, reference_rows

# Frozen sPD fixtures: the two 2-triple-crossing diagrams and their knots.
T2_1 = "sPD[X[5,4,3,2,1,5|TMB],X[6,2,3,4,1,6|TMB]]"  # trefoil
T2_2 = "sPD[X[5,4,3,2,1,5|BMT],X[6,2,3,4,1,6|TMB]]"  # figure-eight

# Frozen witnesses of the three composite-fingerprint classes at c3 = 4.
W_SQUARE = "sPD[X[1,1,2,3,4,5|BTM],X[2,5,6,7,8,9|TBM],X[3,10,11,7,6,4|MBT],X[8,11,10,9,12,12|MTB]]"
W_31_41 = "sPD[X[1,1,2,3,4,5|TBM],X[2,5,6,7,8,9|MTB],X[3,10,11,7,6,4|TMB],X[8,11,10,9,12,12|MTB]]"
W_41_41 = "sPD[X[1,1,2,3,4,5|BTM],X[2,5,6,7,8,9|MTB],X[3,10,11,7,6,4|TMB],X[8,11,10,9,12,12|MTB]]"

# n = 4 diagrams that share (Jones, Alexander) and HOMFLY with 5_1 and with
# W_41_41 respectively, but not Kauffman F.
W_51_SPLIT = "sPD[X[1,1,2,3,4,5|TBM],X[2,5,6,7,8,9|BMT],X[3,10,11,12,6,4|TBM],X[7,12,11,10,9,8|TBM]]"
W_41_41_SPLIT = "sPD[X[1,2,3,4,5,6|TBM],X[1,7,8,9,3,2|BMT],X[4,9,10,11,12,5|BTM],X[6,12,11,10,8,7|MBT]]"

# Standard double-crossing PD codes.
PD_TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
PD_FIG8 = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
PD_KINK = [[1, 2, 2, 1]]


@pytest.fixture(scope="session")
def reference():
    return reference_rows()


@pytest.fixture(scope="session")
def run_n4():
    """Full classification for n = 2..4 (the expensive shared fixture)."""
    return classify(4)


@pytest.fixture(scope="session")
def projections_n3():
    return {n: enumerate_projections(n) for n in (2, 3)}


@pytest.fixture
def projection_clock(monkeypatch):
    """A fake ``time.monotonic`` for ``tricross.enumeration`` that stands
    still except for one tick per projection classified."""
    clock = [0.0]
    project = enumeration._project_classes

    def tick(p):
        clock[0] += 1
        return project(p)

    monkeypatch.setattr(enumeration.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(enumeration, "_project_classes", tick)
