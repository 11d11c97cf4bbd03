"""The benchmark records ``BENCH_*.json`` at the repository root.

A record holds the before/after medians that back a claim of a speed-up:
for each workload it ran, the seed and, for each metric, the ``parent``
(before) and ``change`` (after) medians; an optional ``traced`` section
holds per-layer metrics of one workload the same way.  Every name must
be one that ``BENCHMARK.json`` declares, so a record cannot cite a
workload or metric the benchmark does not run.  The test only reads
``BENCHMARK.json`` and the records.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def assert_medians(metrics, declared):
    assert metrics and set(metrics) <= declared, set(metrics) - declared
    for name, entry in metrics.items():
        for side in ("parent", "change"):
            value = entry[side]
            assert isinstance(value, (int, float)) and math.isfinite(value), \
                (name, side, value)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for entry in record["workloads"].values():
        assert isinstance(entry["seed"], int)
        assert_medians(entry["metrics"], END_TO_END)
    traced = record.get("traced")
    if traced is not None:
        assert traced["workload"] in WORKLOADS
        assert isinstance(traced["seed"], int)
        assert_medians(traced["metrics"], PER_LAYER)
