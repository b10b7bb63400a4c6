"""Every job entry point imports cleanly. The jobs guard their work with
``if __name__ == "__main__"``, so importing one starts no Spark session;
this catches a job left referring to a deleted module or name."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.mark.parametrize("path", sorted(JOBS.glob("*.py")), ids=lambda p: p.stem)
def test_job_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))  # jobs import their _session helper
    # _session prepends src to PYTHONPATH; undo that after the test
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_session_puts_src_on_child_pythonpath(tmp_path):
    """Spark's Python workers are children of the job's process and must
    unpickle functions from ``repro``: after ``import _session`` a child
    interpreter, started with no ``PYTHONPATH`` of its own, imports this
    checkout's ``repro``."""
    src = JOBS.parent / "src"
    parent = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(JOBS)!r})\n"
        "import _session\n"
        "code = 'import repro, os; print(os.path.dirname(repro.__file__))'\n"
        "print(subprocess.run([sys.executable, '-c', code], check=True,\n"
        "                     capture_output=True, text=True).stdout.strip())\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", parent], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert Path(out.stdout.strip()) == src / "repro"
