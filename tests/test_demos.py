"""The fast demos run to completion.

Demos 03 (training, about 7 s) and 04 (the classical schemes' scorecard,
about 11 s on a shared 2-core machine) run in CI's fast-suite job as a step of
their own; demo 07 (the selection proxy, about 100 s on 2 cores) is run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "name",
    [
        "01_exact_training_data.py",
        "02_classical_reconstruction.py",
        "05_burgers_riemann.py",
        "06_spectral_fingerprint.py",
    ],
)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
