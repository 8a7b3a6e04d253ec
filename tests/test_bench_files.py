"""Every committed BENCH_*.json at the repository root agrees with
BENCHMARK.json, which these tests only read."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
# summary entries that count ops rather than name a metric
OP_COUNTS = {"parent_ops", "change_ops"}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_matches_benchmark(path):
    bench = json.loads(path.read_text())
    assert bench["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    pairs = bench["pairs"]
    for name, summary in bench["summary"].items():
        if name in OP_COUNTS:
            continue
        assert name in end_to_end
        assert 0 <= summary["pairs_change_lower"] <= len(pairs)
        # the medians are those of the verbatim result lines
        for side in ("parent", "change"):
            values = [json.loads(p[side]["result"])["metrics"][name]["value"] for p in pairs]
            assert statistics.median(values) == pytest.approx(summary[f"{side}_median"])
