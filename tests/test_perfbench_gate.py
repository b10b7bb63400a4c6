"""The wall-clock benchmark's correctness gate, run as a test.

``perfbench/run.py`` checks every repetition of a paper cell against the
golden digests in ``perfbench/goldens.json``. Running its self-test and
one short repetition of each ``BENCHMARK.json`` workload here makes any
drift in event order or results fail the test suite, not only the
benchmark. The benchmark is run as a command, in subprocesses, and its
files are only read.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_self_test_passes():
    proc = _bench("--self-test")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "self-test passed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_goldens(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], result
