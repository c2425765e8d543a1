"""The benchmark's traced run still yields every per-layer metric it declares.

``perfbench/worker.py`` wraps library functions at the names listed in its
``TRACED`` table.  A name that a refactor folds away or renames, or an
observed call whose arguments or result change shape, silently drops its
metrics from the run instead of failing it.  This test runs the worker in a
child process on a small spec, the way ``perfbench/run.py`` does, and
checks its trace against the ``per_layer`` names in ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
S27 = str(ROOT / "src" / "seusim" / "data" / "circuits" / "s27.bench")

# Computed by perfbench/run.py from the worker's results, not by its tracer.
RUNNER_METRICS = {"report_rows_per_s", "trace.overhead_ratio"}


def _declared_per_layer():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer"]} - RUNNER_METRICS


def test_traced_worker_reports_every_declared_per_layer_metric(tmp_path):
    mc, stimulus = tmp_path / "mc", "random:20:1"
    commands = [
        ["campaign", "--circuit", S27, "--tech", "65nm-like",
         "--stimulus", stimulus, "--seed", "1", "--max-samples", "300",
         "--out", str(mc)],
        ["report", "--stats", str(mc / "stats.json"),
         "--log", str(mc / "samples.csv"), "--recompute",
         "--out", str(tmp_path / "report")],
        ["oracle", "--circuit", S27, "--tech", "180nm-like",
         "--stimulus", stimulus, "--t-grid", "2",
         "--out", str(tmp_path / "oracle")],
    ]
    spec = {"src": str(ROOT / "src"), "trace": True, "commands": commands,
            "setup": [{"circuit": S27, "tech": "65nm-like", "cycles": 20,
                       "stimulus_seed": 1}]}
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [c["exit"] for c in result["commands"]] == [0, 0, 0], \
        [c["stderr"] for c in result["commands"]]
    missing = sorted(_declared_per_layer() - set(result["trace"]))
    assert missing == []
