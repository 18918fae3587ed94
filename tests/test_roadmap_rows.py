"""The ROADMAP baseline script (benchmark/roadmap_rows.py) still runs on this code.

It calls Scene.change_stack, stack_probs, multitask_loss and the model's
forward and backward directly, so a change that breaks one of those calls
fails here before anyone re-measures the baseline rows.
"""

import math
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def roadmap_rows():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import roadmap_rows
    finally:
        sys.path.remove(str(BENCHMARK))
    return roadmap_rows


def test_training_step_row(roadmap_rows):
    ms = roadmap_rows.training_step_ms(False)
    assert math.isfinite(ms) and ms > 0


def test_fusion_row(roadmap_rows):
    ms = roadmap_rows.fusion_ms("adjacent", 8)
    assert math.isfinite(ms) and ms > 0
