"""The benchmark's workloads.

A workload is set up once from its seed, then runs whole rounds of the same
operations.  ``round_ops`` gives the operations of one round; each is a
callable returning ``(output, check)``, where ``check(output)`` lists the
failures of that output.  Checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from typing import Callable, Dict, List, Optional, Tuple

import tricross
from tricross import canon, cli, enumeration
from tricross.maps import TripleDiagram
from tricross.spd import parse_spd

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
PROJECTIONS_FILE = os.path.join(HERE, "projections.spd")

# Diagrams per prime projection, by n, for invariants-n4; None takes every
# distinct diagram.  That gives all 21 + 330 distinct diagrams at n = 2, 3
# and 15 seeded ones at n = 4, 366 in all: the median and the 90th
# percentile fall among the n = 3 diagrams, which are the same for every
# seed, and 37 diagrams lie beyond the 90th percentile.
INVARIANT_SAMPLE = {2: None, 3: None, 4: 1}

Op = Callable[[], Tuple[object, Callable[[object], List[str]]]]


class Census:
    """``tricross classify --n N`` then ``tricross report`` on its output,
    called in-process through ``tricross.cli.main``.  One census is one
    operation."""

    def __init__(self, seed: int, workdir: str, max_n: int = 3) -> None:
        self.max_n = max_n
        self.records = os.path.join(workdir, "census.jsonl")
        self.report = os.path.join(workdir, "report.json")

    def _census(self):
        """The exit codes of the two commands."""
        return (cli.main(["classify", "--n", str(self.max_n), "--out", self.records]),
                cli.main(["report", self.records, "--out", self.report]))

    def _check(self, codes) -> List[str]:
        if codes != (0, 0):
            return [f"classify and report exit with {codes}"]
        with open(self.report) as f:
            report = json.load(f)
        return checks.census_failures(checks.read_jsonl(self.records), report, self.max_n)

    def round_ops(self) -> List[Op]:
        return [lambda: (self._census(), self._check)]


class Projections:
    """``enumerate_projections(n)`` for n = 2 .. N; one sweep is one operation."""

    def __init__(self, seed: int, workdir: str, max_n: int = 4) -> None:
        self.ns = range(2, max_n + 1)
        self.rng = random.Random(seed)

    def _sweep(self):
        return [enumeration.enumerate_projections(n) for n in self.ns]

    def _check(self, reps_by_n) -> List[str]:
        out = []
        for n, reps in zip(self.ns, reps_by_n):
            out.extend(checks.projection_failures(n, reps, self.rng))
        return out

    def round_ops(self) -> List[Op]:
        return [lambda: (self._sweep(), self._check)]


def load_projections(max_n: int) -> Dict[int, list]:
    """The prime projections of ``projections.spd``, checked to be the
    paper's 1, 2, 15 distinct prime projections."""
    by_n: Dict[int, list] = {}
    with open(PROJECTIONS_FILE) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                p = parse_spd(line)
                by_n.setdefault(p.n, []).append(p)
    for n in range(2, max_n + 1):
        ps = by_n.get(n, [])
        codes = {canon.canonical_projection_code(p) for p in ps}
        if len(codes) != checks.PAPER_PROJECTIONS[n] or len(ps) != len(codes):
            raise SystemExit(f"{PROJECTIONS_FILE}: wrong projections at n = {n}")
        for p in ps:
            p.validate()
            if not p.is_prime():
                raise SystemExit(f"{PROJECTIONS_FILE}: a projection at n = {n} is not prime")
    return {n: by_n[n] for n in range(2, max_n + 1)}


def draw_sample(projections: Dict[int, list], per_projection: Dict[int, Optional[int]],
                rng: random.Random) -> List[TripleDiagram]:
    """Distinct height-assigned diagrams, ``per_projection[n]`` on each
    projection (all of them for None), each under a random relabelling, in
    random order."""
    sample = []
    for n, k in sorted(per_projection.items()):
        for p in projections[n]:
            if k is None:
                words = itertools.product(checks.HEIGHT_WORDS, repeat=n)
            else:
                words = iter(lambda: [rng.choice(checks.HEIGHT_WORDS) for _ in range(n)], None)
            seen = set()
            for w in words:
                d = TripleDiagram(p, w)
                code = canon.canonical_diagram_code(d)
                if code not in seen:
                    seen.add(code)
                    sample.append(checks.relabel(d, rng))
                    if len(seen) == k:
                        break
    rng.shuffle(sample)
    return sample


class Invariants:
    """The full invariant set, one diagram at a time, over a seeded sample of
    distinct diagrams on the prime projections; one diagram is one operation."""

    def __init__(self, seed: int, workdir: str, max_n: int = 4,
                 per_projection: Dict[int, Optional[int]] = INVARIANT_SAMPLE) -> None:
        per_n = {n: k for n, k in per_projection.items() if n <= max_n}
        self.sample = draw_sample(load_projections(max_n), per_n, random.Random(seed))

    @staticmethod
    def _invariants(d: TripleDiagram) -> dict:
        # called through the package namespace, where tracing wraps them
        dd = tricross.convert_to_double(d)
        return {
            "jones_triple": tricross.jones_triple(d),
            "bracket_jones": tricross.bracket_jones(dd),
            "alexander": tricross.alexander(dd),
            "homfly": tricross.homfly(dd),
            "kauffman_f": tricross.kauffman_f(dd),
        }

    def round_ops(self) -> List[Op]:
        return [lambda d=d: (self._invariants(d), checks.invariant_failures)
                for d in self.sample]


WORKLOADS = {
    "census-n3": Census,
    "projections-n4": Projections,
    "invariants-n4": Invariants,
}
