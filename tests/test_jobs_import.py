"""Every job entry point imports cleanly. The jobs guard their work with
``if __name__ == "__main__"``, so importing one starts no Spark session;
this catches a job left referring to a deleted module or name. The docs
and docstrings name only jobs that exist, and the driver rejects an
argument it does not know before it starts Spark."""
import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"


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


def _docstrings(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def test_docs_cite_only_existing_jobs():
    """Each ``jobs/<name>.py``, ``tests/<file>.py[::Class]`` and
    ``src/repro/<pkg>/<mod>.py`` (or bare ``<pkg>/<mod>.py``) named in the
    top-level docs or in a docstring under ``jobs/`` and ``src/`` exists,
    and so does each cited test class."""
    texts = {name: (ROOT / name).read_text() for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")}
    for path in sorted(JOBS.glob("*.py")) + sorted((ROOT / "src").rglob("*.py")):
        texts[str(path.relative_to(ROOT))] = "\n".join(_docstrings(path))
    pkgs = "|".join(p.name for p in (ROOT / "src" / "repro").iterdir() if (p / "__init__.py").exists())
    citations = [  # (pattern with a ``path`` group, directory the path is relative to)
        (r"\b(?P<path>jobs/\w+\.py)", ROOT),
        (r"\b(?P<path>tests/\w+\.py)(?:::(?P<cls>\w+))?", ROOT),
        (rf"(?:src/repro/)?\b(?P<path>(?:{pkgs})/\w+\.py)", ROOT / "src" / "repro"),
    ]
    cited = {
        (where, str((base / m["path"]).relative_to(ROOT)), m.groupdict().get("cls"))
        for where, text in texts.items() for pattern, base in citations
        for m in re.finditer(pattern, text)
    }
    assert ("README.md", "jobs/run_all_tables.py", None) in cited
    assert ("EXPERIMENTS.md", "tests/test_recovery_line.py", None) in cited
    assert ("DESIGN.md", "src/repro/protocols/recovery.py", None) in cited

    def missing(path, cls):
        f = ROOT / path
        return not f.exists() or (cls and not re.search(rf"^class {cls}\b", f.read_text(), re.M))

    assert sorted(c for c in cited if missing(*c[1:])) == []


def test_driver_rejects_unknown_arguments():
    """An unknown flag exits with argparse's usage error (code 2) and names
    the flag. A run that got as far as Spark would exit 0 after the sweep
    or 1 on a Spark error, and take far longer."""
    out = subprocess.run([sys.executable, str(JOBS / "run_all_tables.py"), "--bogus"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert "--bogus" in out.stderr
    assert out.stdout == ""
