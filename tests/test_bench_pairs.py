"""``tools/bench_pairs.py`` summarises the runs it keeps into the blocks it
writes: fed the ``runs`` of a committed BENCH file, ``summarise`` gives back
that file's ``summary`` and ``traced`` blocks."""

import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


# The committed files that ``summarise`` cannot reproduce, with the reason.
_UNREPRODUCIBLE = {
    "BENCH_one_map.json": "its traced block has other workloads than its summary",
    "BENCH_skein_reduce.json": "its runs predate the result field",
    "BENCH_bracket_contract.json": "its runs predate the result field",
}


_COMMITTED = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))


@pytest.mark.parametrize("name", [n for n in _COMMITTED if n not in _UNREPRODUCIBLE])
def test_summarise_reproduces_the_committed_blocks(name):
    bench_pairs = _load_bench_pairs()
    spec = _read("BENCHMARK.json")
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = _read(name)
    for block, trace in (("summary", 0), ("traced", 1)):
        assert set(record[block]) == {w["name"] for w in spec["workloads"]}
        for workload, want in record[block].items():
            got = bench_pairs.summarise(record["runs"], workload, trace, better)
            assert json.loads(json.dumps(got)) == want
