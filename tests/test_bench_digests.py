"""The benchmark's default-seed outputs still match its recorded digests.

``perfbench/run.py`` checks one repetition of each workload at the default
seed against ``perfbench/digests.json`` before it measures anything; a
mismatch fails the benchmark as ``outputs_incorrect``.  This test runs the
same check, in the same child processes, so that a change which alters a
single output byte also fails ``pytest``.  It writes only under its own
temporary directory.
"""

import pytest

from conftest import _load_perfbench_module

bench = _load_perfbench_module("run")


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_default_seed_outputs_match_recorded_digests(tmp_path, workload):
    run = bench.Run(workload, tmp_path)
    bench.check_default_seed(run)
    assert run.attempted > 0
    assert run.failed == 0
