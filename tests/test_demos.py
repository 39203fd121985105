"""The demos print what they printed when their goldens were recorded.

Each demo runs in a fresh interpreter, as a user would run it, and its
stdout is compared byte for byte with tests/demo_goldens/<demo>.txt.
04_fourier_identity is left out: it prints floating-point round-off
of the transform, which depends on the host's FFT.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "demo_goldens"
DEMOS = (
    "01_field_and_codes",
    "02_grassmannian_tour",
    "03_projections_and_energy",
    "05_random_families",
    "06_curve_families",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDENS / f"{demo}.txt").read_bytes()


def test_every_demo_but_the_round_off_one_has_a_golden():
    demos = {path.stem for path in (ROOT / "demos").glob("*.py")}
    assert demos - set(DEMOS) == {"04_fourier_identity"}
    assert {path.stem for path in GOLDENS.glob("*.txt")} == set(DEMOS)
