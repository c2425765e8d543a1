"""The committed ``BENCH_*.json`` records follow the ROADMAP's rule for a
speed claim: at least 10 alternating parent/change pairs per workload,
every run correct and none failed, and medians that are the medians of
the recorded runs.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_PAIRS = 10


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_backs_its_claim(path):
    record = json.loads(path.read_text())
    for key in ("parent_commit", "claim", "method", "machine"):
        assert record.get(key), f"no {key}"
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert pairs >= MIN_PAIRS, name
        assert workload["correct_all_runs"] is True, name
        assert workload["failed_parent"] == workload["failed_change"] == 0, name
        assert workload["metrics"], name
        for metric, m in workload["metrics"].items():
            for side in ("parent", "change"):
                runs = m[f"{side}_runs"]
                assert len(runs) == pairs, (name, metric, side)
                # older records round their medians to 4 significant digits
                assert math.isclose(m[f"{side}_median"],
                                    statistics.median(runs),
                                    rel_tol=1e-3), (name, metric, side)
