"""The command line's failure contract under seeded fuzzing (fuzz_cli.py).

Each run mutates one input and must exit 0 with empty stderr, or exit 1
with one non-empty error line and no run directory.  The runs happen in one
subprocess capped at 1 GiB of address space, with warnings as errors.
"""

import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SHORT_RUNS = 800


def fuzz(workdir, first, count, timeout):
    """The runs first .. first + count - 1 that broke the contract."""
    done = subprocess.run(
        [sys.executable, os.path.join(TESTS, "fuzz_cli.py"), "--first", str(first),
         "--count", str(count), "--workdir", str(workdir)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fuzzed_inputs_fail_on_one_line(tmp_path):
    assert fuzz(tmp_path, 0, SHORT_RUNS, timeout=300) == []


@pytest.mark.slow
def test_long_fuzz_fails_on_one_line(tmp_path):
    assert fuzz(tmp_path, SHORT_RUNS, 5000, timeout=1800) == []
