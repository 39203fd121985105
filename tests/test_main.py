"""``python -m fpproj`` exits with main()'s code across a real process.

Exit codes: 0 success, 1 bound failure, 2 usage or parse error, 3 budget
exceeded.  Each case runs a fresh interpreter, as a user would run it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python(*args, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=timeout,
    )


def fpproj(*argv):
    return python("-m", "fpproj", *argv)


def test_count_prints_formula_and_enumeration():
    done = fpproj("count", "--p", "3", "--n", "3", "--k", "2")
    assert (done.returncode, done.stdout) == (0, "13 13\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--p", "3", "--n", "3", "--k", "2", "--point-budget", "5"),
        ("identity-check", "--p", "3", "--n", "2", "--m", "1", "--trials", "-1"),
    ],
    ids=("count-point-budget", "identity-check-negative-trials"),
)
def test_usage_errors_exit_2(argv):
    done = fpproj(*argv)
    assert done.returncode == 2 and done.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--p", "2", "--n", "100000000", "--k", "3"),
        ("project", "--p", "3", "--n", "100000000", "--subspace", "1", "--set", "moment"),
        ("examples", "moment", "--p", "3", "--n", "100000000"),
        ("count", "--p", "1000000000000000003", "--n", "1", "--k", "0"),  # a prime
        ("random-family", "--p", "3", "--n", "3", "--m", "1", "--alpha", "1e999999999", "--seed", "1"),
    ],
    ids=("count-huge-n", "project-huge-n", "examples-huge-n", "count-huge-prime", "alpha-huge-exponent"),
)
def test_raw_numbers_too_large_to_compute_exit_2_at_once(argv):
    # each used to run for well over 15 s in big-integer arithmetic
    done = python("-m", "fpproj", *argv, timeout=15)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_sweep_config_with_an_unknown_key_exits_2(tmp_path):
    config = {
        "p": 7, "n": 3, "m": 1, "families": ["full"], "sets": ["random:20:7"],
        "thresholds": {"kind": "N", "values": [1]}, "ouput": "typo.csv",
    }  # fmt: skip
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    done = fpproj("sweep", "--config", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "unknown key ouput" in done.stderr


def test_budget_failure_exits_3():
    # p^n = 2^17 = 131,072 exceeds the default point budget of 100,000
    done = fpproj("project", "--p", "2", "--n", "17", "--subspace", ",".join("1" + "0" * 16),
                  "--set", "random:3:1")  # fmt: skip
    assert done.returncode == 3 and done.stdout == ""
    assert "budget exceeded" in done.stderr


def test_project_leaves_numpy_ma_unloaded():
    # np.unique without a return_* flag imports numpy.ma to rule out a
    # masked array; counting fibers by one sort needs no such import
    done = python("-c", """if True:
        import sys
        from fpproj import cli
        code = cli.main(["project", "--p", "3", "--n", "3", "--subspace", "1,0,2", "--set", "random:5:1"])
        print(code, "numpy.ma" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert "image_size" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 False"
