"""Path bootstrap for the job entrypoints: puts ``src`` on ``sys.path``,
and first on ``PYTHONPATH`` so the Python workers Spark starts from this
process can import ``repro`` too (they unpickle functions defined in it).

Jobs run either under ``spark-submit jobs/<name>.py`` (a session already
exists) or as plain ``python jobs/<name>.py``; both get their session from
``repro.core.harness.spark_session``.
"""
import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
