"""Path bootstrap for the job entrypoints: puts ``src`` on ``sys.path``.

Jobs run either under ``spark-submit jobs/<name>.py`` (a session already
exists) or as plain ``python jobs/<name>.py``; both get their session from
``repro.core.harness.spark_session``.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
