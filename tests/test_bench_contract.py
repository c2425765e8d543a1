"""The benchmark's traced run still yields every per-layer metric it declares.

``perfbench/worker.py`` wraps library functions at the names listed in its
``TRACED`` table.  A name that a refactor folds away or renames, or an
observed call whose arguments or result change shape, silently drops its
metrics from the run instead of failing it.  This test runs the worker in a
child process on a small spec, the way ``perfbench/run.py`` does, and
checks its trace against the ``per_layer`` names in ``BENCHMARK.json``:
one worker runs a campaign and its report, another the oracle alone.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
S27 = str(ROOT / "src" / "seusim" / "data" / "circuits" / "s27.bench")
STIMULUS = "random:20:1"

# Computed by perfbench/run.py from the worker's results, not by its tracer.
RUNNER_METRICS = {"report_rows_per_s", "trace.overhead_ratio"}


def _declared_per_layer():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer"]} - RUNNER_METRICS


def _s27_campaign_and_report(tmp_path):
    mc = tmp_path / "mc"
    return [
        ["campaign", "--circuit", S27, "--tech", "65nm-like",
         "--stimulus", STIMULUS, "--seed", "1", "--max-samples", "300",
         "--out", str(mc)],
        ["report", "--stats", str(mc / "stats.json"),
         "--log", str(mc / "samples.csv"), "--recompute",
         "--out", str(tmp_path / "report")],
    ]


def _s27_oracle(tmp_path):
    return [
        ["oracle", "--circuit", S27, "--tech", "180nm-like",
         "--stimulus", STIMULUS, "--t-grid", "2",
         "--out", str(tmp_path / "oracle")],
    ]


# One worker per workload's command shape, so one command's traced calls
# cannot stand in for metrics another command drops.
@pytest.mark.parametrize("commands", [_s27_campaign_and_report, _s27_oracle],
                         ids=["campaign-report", "oracle"])
def test_traced_worker_reports_every_declared_per_layer_metric(tmp_path,
                                                               commands):
    commands = commands(tmp_path)
    spec = {"src": str(ROOT / "src"), "trace": True, "commands": commands,
            "setup": [{"circuit": S27, "tech": "65nm-like", "cycles": 20,
                       "stimulus_seed": 1}]}
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [c["exit"] for c in result["commands"]] == [0] * len(commands), \
        [c["stderr"] for c in result["commands"]]
    missing = sorted(_declared_per_layer() - set(result["trace"]))
    assert missing == []
