"""The benchmark's tracer self-test runs green on this checkout.

``perfbench/selftest.py`` checks that the tracer wraps ``ptm_from_kraus`` in
``qubit_core``, ``cli``, ``bounds`` and ``protocols``, that ``figure2`` calls
``simulate_sequence`` five times per row and that ``--threads`` still
parses.  A refactor of those names or call counts breaks the benchmark, so
the suite runs the script.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
