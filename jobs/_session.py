"""Path bootstrap for the driver ``run_all_tables.py``: puts ``src`` on
``sys.path``, and first on ``PYTHONPATH`` so the Python workers Spark
starts from this process can import ``repro`` too (they unpickle functions
defined in it).

The driver runs either under ``spark-submit`` (a session already exists)
or as plain ``python``; both get their session from
``repro.core.harness.spark_session``.
"""
import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
