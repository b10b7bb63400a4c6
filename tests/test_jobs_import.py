"""Every job entry point imports cleanly. The jobs guard their work with
``if __name__ == "__main__"``, so importing one starts no Spark session;
this catches a job left referring to a deleted module or name."""
import importlib.util
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.mark.parametrize("path", sorted(JOBS.glob("*.py")), ids=lambda p: p.stem)
def test_job_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))  # jobs import their _session helper
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
