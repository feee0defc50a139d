"""``tools/bench_pairs.py`` summarises the runs it keeps into the blocks it
writes: fed the ``runs`` of a committed BENCH file, ``summarise`` gives back
that file's ``summary`` and ``traced`` blocks."""

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


# BENCH_one_map.json is left out: its traced block predates the fixed
# PAIRS and TRACED_PAIRS constants, and its runs do not reproduce it.
@pytest.mark.parametrize("name", ["BENCH_skein_on_map.json", "BENCH_canon_frames.json",
                                  "BENCH_tangle_table.json", "BENCH_pair_transform.json",
                                  "BENCH_orderly_compare.json", "BENCH_open_face_bound.json",
                                  "BENCH_search_recursion.json", "BENCH_laurent_core.json",
                                  "BENCH_local_surgery.json", "BENCH_class_records.json",
                                  "BENCH_full_key.json", "BENCH_chain_minor.json",
                                  "BENCH_jones_routes.json", "BENCH_skein_splice.json",
                                  "BENCH_resume_state.json", "BENCH_folded_codes.json",
                                  "BENCH_move_table.json"])
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
