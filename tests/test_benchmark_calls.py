"""The benchmark's workloads (benchmark/workloads.py) still run on this code.

They call into changeseries directly (train, corrupt_to_probabilities,
stack_probs, the command line's infer, integrate and eval) and check every
output, so a change that breaks one of those calls or alters an output fails
here before a benchmark run reports it.
"""

import contextlib
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


class UntracedRun:
    @contextlib.contextmanager
    def paused(self):
        yield


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARK))
    return workloads


@pytest.mark.parametrize(
    "name", ["FuseLong", "InferSeries", pytest.param("TrainDesk", marks=pytest.mark.slow)]
)
def test_one_checked_pass(tmp_path, workloads, name):
    workload = getattr(workloads, name)(0)
    inputs = workload.setup(str(tmp_path))
    tally = workloads.Tally()
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    workload.run_pass(inputs, str(pass_dir), tally, UntracedRun())
    assert tally.correct and tally.failed == 0, tally.problems
    assert tally.attempted > 0
