"""The bit-identity gate: ``report_set.py`` against its committed golden output.

A change that moves a bit of a campaign report, a kernel value, a ``gen``
file or a ``kl`` result fails here until ``tests/report_set.golden.jsonl`` is
regenerated in the same diff (see ``report_set.py``), so the diff lists every
moved number.  On a machine whose header differs (library versions, OpenBLAS
core or thread count), the script compares only the campaign reports'
``trials``, ``violations`` and ``config_digest``, and says so in its output.
"""

import os
import subprocess
import sys
from pathlib import Path

import gausskl

TESTS = Path(__file__).resolve().parent


def test_report_set_matches_the_golden_file():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(gausskl.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(TESTS / "report_set.py"),
                           "--against", str(TESTS / "report_set.golden.jsonl")],
                          env=env, capture_output=True, text=True, timeout=300)
    print(proc.stdout, proc.stderr, sep="")
    assert proc.returncode == 0, proc.stdout + proc.stderr
