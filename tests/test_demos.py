"""The demos print what they printed when their goldens were recorded.

Each demo runs in a fresh interpreter, as a user would run it, and its
stdout is compared byte for byte with tests/demo_goldens/<demo>.txt.
04_fourier_identity has no golden: it prints floating-point round-off
of the transform, which depends on the host's FFT, so only its exact
lines are compared with fixed text.
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


def run_demo(demo) -> bytes:
    """The stdout of one demo run in a fresh interpreter, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_golden(demo):
    assert run_demo(demo) == (GOLDENS / f"{demo}.txt").read_bytes()


def test_round_off_demo_keeps_its_exact_lines():
    # every line of 04_fourier_identity up to its first '; ' carries no round-off
    lines = run_demo("04_fourier_identity").decode().splitlines()
    exact = [line.split("; ")[0] for line in lines if not line.startswith(("Parseval", "factored", "  spectral"))]
    assert exact == [
        "|E| = 30",
        "",
        "coset identity over every plane:",
        "  all 31 planes pass",
        "",
        "example W = 1,0,0;0,1,1",
        "  spatial (exact)  214",
        "  frequencies used: the 5 points of Per(W) = 0,1,4",
    ]
    # the FFT against the character sums of the definition
    (difference,) = [line for line in lines if line.startswith("factored vs direct")]
    assert float(difference.split(":")[1]) < 1e-9


def test_every_demo_but_the_round_off_one_has_a_golden():
    demos = {path.stem for path in (ROOT / "demos").glob("*.py")}
    assert demos - set(DEMOS) == {"04_fourier_identity"}
    assert {path.stem for path in GOLDENS.glob("*.txt")} == set(DEMOS)
