"""Spans around the calls into each layer of ``tricross``.

While a :class:`Tracer` is active it replaces the public functions of each
layer under the names their callers use (``classify`` reaches Alexander as
``tricross.enumeration.alexander``) with wrappers that record one span per
call: its layer name, start, end and the span that caused it.  The shadow
search is a generator, so each resumption is one span.  Spans stay in memory
and are written out when the run ends; per-layer self times and counts are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

import tricross.cli  # noqa: F401 (wrapped while tracing)
from tricross import canon
from tricross.maps import TripleProjection

# (module, attribute, layer) for every wrapped callable.  The package
# namespace entries are the names the invariants workload calls.
_ENUM = "tricross.enumeration"
TARGETS = (
    ("tricross.cli", "main", "cli"),
    ("tricross.cli", "classify", "classify"),
    (_ENUM, "enumerate_projections", "enumerate"),
    (_ENUM, "enumerate_raw_shadows", "search"),
    (_ENUM, "canonical_projection_code", "canon_proj"),
    (_ENUM, "find_m_sites", "morbit"),
    (_ENUM, "apply_m", "morbit"),
    (_ENUM, "canonical_diagram_code", "dedup"),
    (_ENUM, "jones_triple_batch", "jones_batch"),
    (_ENUM, "convert_to_double", "tangle"),
    (_ENUM, "alexander", "alexander"),
    (_ENUM, "kauffman_f", "kauffman"),
    ("tricross", "jones_triple", "jones_single"),
    ("tricross", "bracket_jones", "bracket"),
    ("tricross", "convert_to_double", "tangle"),
    ("tricross", "alexander", "alexander"),
    ("tricross", "homfly", "homfly"),
    ("tricross", "kauffman_f", "kauffman"),
)

# Per-layer metrics: name -> unit.  Times and counts are per round.
LAYER_METRICS = {
    "search.s": "s", "search.shadows": "count", "search.prime_ratio": "ratio",
    "prime.s": "s", "prime.calls": "count",
    "canon_proj.s": "s", "canon_proj.calls": "count", "canon_proj.distinct_ratio": "ratio",
    "morbit.s": "s", "morbit.sites": "count",
    "enumerate.self_s": "s",
    "dedup.s": "s", "dedup.calls": "count", "dedup.distinct_ratio": "ratio",
    "jones_batch.s": "s", "jones_batch.words": "count",
    "jones_single.s": "s", "jones_single.calls": "count",
    "bracket.s": "s", "bracket.calls": "count",
    "tangle.s": "s", "tangle.calls": "count",
    "alexander.s": "s", "alexander.calls": "count",
    "homfly.s": "s", "homfly.calls": "count",
    "kauffman.s": "s", "kauffman.calls": "count", "kauffman.useful_ratio": "ratio",
    "classify.self_s": "s",
    "report.s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.self_sum_s": "s",
    "trace.spans": "count", "trace.span_cost_s": "s",
}

_SELF_METRIC = {"enumerate": "enumerate.self_s", "classify": "classify.self_s",
                "cli": "report.s"}


class Tracer:
    """Records spans while active; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._stack: List[int] = [-1]
        self._saved: List[tuple] = []
        self.counts: Dict[str, int] = {}
        self.prime_codes: set = set()
        self.diagram_codes: set = set()
        self.kauffman_inputs: list = []
        self._last_shadow = None
        self._last_double = (None, None)
        self.span_cost = 0.0

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _wrap_search(self, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = ["search", 0.0, 0.0, stack[-1]]
                spans.append(rec)
                stack.append(len(spans) - 1)
                rec[1] = clock()
                try:
                    shadow = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                tracer._last_shadow = shadow
                tracer._count("search.shadows")
                yield shadow

        return traced

    # -- observers: counts that need a call's arguments or result -----------

    def _obs_prime(self, args, result) -> None:
        if result:
            self._count("prime.true")

    def _obs_canon(self, args, result) -> None:
        if args[0] is self._last_shadow:
            self.prime_codes.add(result)

    def _obs_sites(self, args, result) -> None:
        self._count("morbit.sites", len(result))

    def _obs_dedup(self, args, result) -> None:
        self.diagram_codes.add(result)

    def _obs_batch(self, args, result) -> None:
        self._count("jones_batch.words", len(args[1]))

    def _obs_tangle(self, args, result) -> None:
        self._last_double = (args[0], result)

    def _obs_kauffman(self, args, result) -> None:
        source, double = self._last_double
        if args[0] is double:
            self.kauffman_inputs.append(source)

    def _observer(self, attr: str) -> Optional[Callable]:
        return {
            "canonical_projection_code": self._obs_canon,
            "find_m_sites": self._obs_sites,
            "canonical_diagram_code": self._obs_dedup,
            "jones_triple_batch": self._obs_batch,
            "convert_to_double": self._obs_tangle,
            "kauffman_f": self._obs_kauffman,
        }.get(attr)

    # -- activation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, attr, layer in TARGETS:
            owner = sys.modules[module]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if layer == "search":
                setattr(owner, attr, self._wrap_search(fn))
            else:
                setattr(owner, attr, self.wrap(layer, fn, self._observer(attr)))
        fn = TripleProjection.is_prime
        self._saved.append((TripleProjection, "is_prime", fn))
        TripleProjection.is_prime = self.wrap("prime", fn, self._obs_prime)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def end_round(self) -> None:
        """Fold the per-round distinct sets into counts."""
        self._count("canon_proj.distinct", len(self.prime_codes))
        self._count("dedup.distinct", len(self.diagram_codes))
        folded = {canon.canonical_diagram_code(d, fold_mirror=True)
                  for d in self.kauffman_inputs}
        self._count("kauffman.useful", len(folded))
        self.prime_codes.clear()
        self.diagram_codes.clear()
        self.kauffman_inputs.clear()
        self._last_shadow = None
        self._last_double = (None, None)

    # -- calibration and derived metrics -------------------------------------

    def calibrate(self, calls: int = 20000) -> None:
        """Estimate the time one child span adds to its parent's self time."""
        def noop():
            return None

        def bare_loop():
            for _ in range(calls):
                noop()

        probe = Tracer()
        child = probe.wrap("child", noop)

        def traced_loop():
            for _ in range(calls):
                child()

        costs = []
        for _ in range(5):
            t = time.perf_counter()
            bare_loop()
            bare = time.perf_counter() - t
            probe.spans.clear()
            probe.wrap("parent", traced_loop)()
            root = probe.spans[0]
            inner = sum(s[2] - s[1] for s in probe.spans[1:])
            costs.append(((root[2] - root[1]) - inner - bare) / calls)
        costs.sort()
        self.span_cost = max(costs[len(costs) // 2], 0.0)

    def layer_metrics(self, rounds: int, traced_wall: float) -> dict:
        """Per-round layer metrics from the recorded spans; ``traced_wall``
        is the mean traced wall time of one round."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        roots = 0
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
            else:
                roots += 1
        self_time: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(spans):
            own = end - start - child_time[i] - self.span_cost * children[i]
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {key: 0.0 for key in LAYER_METRICS}
        for layer in ("search", "prime", "canon_proj", "morbit", "dedup", "jones_batch",
                      "jones_single", "bracket", "tangle", "alexander", "homfly",
                      "kauffman"):
            m[f"{layer}.s"] = self_time.get(layer, 0.0) / rounds
            if f"{layer}.calls" in m:
                m[f"{layer}.calls"] = calls.get(layer, 0) / rounds
        for layer, key in _SELF_METRIC.items():
            m[key] = self_time.get(layer, 0.0) / rounds
        shadows = c.get("search.shadows", 0)
        m["search.shadows"] = shadows / rounds
        m["search.prime_ratio"] = ratio(c.get("prime.true", 0), shadows)
        m["canon_proj.distinct_ratio"] = ratio(c.get("canon_proj.distinct", 0),
                                               c.get("prime.true", 0))
        m["morbit.sites"] = c.get("morbit.sites", 0) / rounds
        m["dedup.distinct_ratio"] = ratio(c.get("dedup.distinct", 0), calls.get("dedup", 0))
        m["jones_batch.words"] = c.get("jones_batch.words", 0) / rounds
        m["kauffman.useful_ratio"] = ratio(c.get("kauffman.useful", 0),
                                           calls.get("kauffman", 0))
        m["trace.wall_s"] = traced_wall
        m["trace.spans"] = len(spans) / rounds
        m["trace.span_cost_s"] = self.span_cost
        # traced less untraced wall time: the calibrated cost of every span
        # but the roots, which a plain round does not have either
        m["trace.overhead_s"] = self.span_cost * (len(spans) - roots) / rounds
        m["trace.self_sum_s"] = sum(self_time.values()) / rounds
        return m

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"span_cost_s": self.span_cost}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
