"""The bit-identity gate: ``report_set.py`` against its committed golden output.

A change that moves a bit of a campaign report, a kernel value, a ``gen``
file or a ``kl`` result fails here until ``tests/report_set.golden.jsonl`` is
regenerated in the same diff (see ``report_set.py``), so the diff lists every
moved number.  On a machine whose header differs (library versions, OpenBLAS
core or thread count), the script compares only the campaign reports'
``trials``, ``violations`` and ``config_digest``, and says so in its output.

The portability test runs the report set's 39 campaign reports under other
OpenBLAS kernel cores and numpy's baseline SIMD target: the verdicts must not
hinge on the machine, though worst margins may move by roundoff.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import gausskl
from gausskl.harness import CLOSED_FORM_TOL

TESTS = Path(__file__).resolve().parent
# The environment variables that pick OpenBLAS's kernel core and numpy's SIMD targets.
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")


def test_report_set_matches_the_golden_file():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(gausskl.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(TESTS / "report_set.py"),
                           "--against", str(TESTS / "report_set.golden.jsonl")],
                          env=env, capture_output=True, text=True, timeout=300)
    print(proc.stdout, proc.stderr, sep="")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _campaign_reports(**kernels) -> list:
    # report_set.reports() in a fresh interpreter at one OpenBLAS thread, with the
    # given kernel variables and no others.
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(gausskl.__file__).resolve().parents[1]), **kernels)
    code = "import json, report_set\nfor r in report_set.reports(): print(json.dumps(r.as_dict()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types and numpy's X86_V2 target name x86-64 kernels")
def test_campaign_verdicts_do_not_depend_on_the_kernels():
    # Where a core type has no effect (an OpenBLAS built without dynamic arch), the
    # reports simply equal the default run's.
    default = _campaign_reports()
    assert len(default) == 39
    for extra in ({"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
                  {"NPY_ENABLE_CPU_FEATURES": "X86_V2"}):
        other = _campaign_reports(**extra)
        assert len(other) == len(default), extra
        for a, b in zip(default, other):
            for key in ("proposition", "trials", "violations", "config_digest"):
                assert a[key] == b[key], (extra, a, b)
            assert abs(a["worst_margin"] - b["worst_margin"]) <= CLOSED_FORM_TOL, (extra, a, b)
