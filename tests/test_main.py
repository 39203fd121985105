"""``python -m fpproj`` exits with main()'s code across a real process.

Exit codes: 0 success, 1 bound failure, 2 usage or parse error, 3 budget
exceeded.  Each case runs a fresh interpreter, as a user would run it;
so do the checks that ``import fpproj`` starts no BLAS worker thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpproj import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parent.parent
NO_BLAS_THREADS = dict.fromkeys(BLAS_THREAD_VARIABLES)  # an env override that unsets all three


def python(*args, timeout=None, env=None):
    """Run a fresh interpreter on src/; env overrides os.environ, and a None value unsets."""
    env = {key: value for key, value in {**os.environ, **(env or {})}.items() if value is not None}
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


def sweep_config(tmp_path, **overrides):
    config = {
        "p": 5, "n": 3, "m": 1, "families": ["full"], "sets": ["random:20:7"],
        "thresholds": {"kind": "N", "values": [1, 2]},
    }  # fmt: skip
    config.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def assert_one_error_line(done, *fragments):
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr
    for fragment in fragments:
        assert fragment in done.stderr


@pytest.mark.parametrize("t", ["100000000000", "1e4300", 7000], ids=("t-1e11", "t-1e4300", "t-7000"))
def test_sweep_refuses_a_t_whose_power_is_too_long_to_print(tmp_path, t):
    # each ran until killed, or (t = 7000 over F_5) built 5^7000 and only then failed to print it
    path = sweep_config(tmp_path, thresholds={"kind": "t", "values": [1, t]})
    done = python("-m", "fpproj", "sweep", "--config", str(path), timeout=15)
    assert_one_error_line(done, "threshold exponent t", "4300 digits")


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("thresholds.values: must be a list", dict(thresholds={"kind": "N", "values": "12"})),
        ("families: must be a list of strings", dict(families={"full": 1})),
        ("families: must be a list of strings", dict(families=["full", 3])),
        ("sets: must be a list of strings", dict(sets=["random:20:7", 5])),
        ("output: must be a string", dict(output=2)),
        ("output: must be a string", dict(output=True)),
        ("output: must be a string", dict(output=["report.csv"])),
    ],
    ids=("values-string", "families-dict", "families-number", "sets-number", "output-2", "output-true", "output-list"),
)
def test_sweep_config_values_of_the_wrong_json_type_exit_2(tmp_path, key, overrides):
    # a string was split into characters, a dict read by its keys, and an
    # integer output opened as a file descriptor and closed after writing
    config = sweep_config(tmp_path, **overrides)
    done = python("-m", "fpproj", "sweep", "--config", str(config), timeout=15)
    assert_one_error_line(done, f"error: {config}: {key}")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_budget_failure_exits_3():
    # p^n = 2^17 = 131,072 exceeds the default point budget of 100,000
    done = fpproj("project", "--p", "2", "--n", "17", "--subspace", ",".join("1" + "0" * 16),
                  "--set", "random:3:1")  # fmt: skip
    assert done.returncode == 3 and done.stdout == ""
    assert "budget exceeded" in done.stderr


def test_project_leaves_numpy_ma_unloaded():
    # np.unique without a return_* flag imports numpy.ma to rule out a
    # masked array; with return_counts, as project asks, it needs no such import
    done = python("-c", """if True:
        import sys
        from fpproj import cli
        code = cli.main(["project", "--p", "3", "--n", "3", "--subspace", "1,0,2", "--set", "random:5:1"])
        print(code, "numpy.ma" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert "image_size" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 False"


# -- the one-thread BLAS default ---------------------------------------------------

THREADS = "int(open('/proc/self/status').read().split('Threads:')[1].split()[0])"
needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Threads: from /proc")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_report(code, env):
    """Run code in a fresh interpreter and return the JSON value it prints last."""
    done = python("-c", code, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@needs_proc
def test_import_starts_no_blas_worker():
    # numpy's OpenBLAS starts one thread per core by default; fpproj makes no BLAS call
    assert child_report(f"import json, fpproj; print(json.dumps({THREADS}))", NO_BLAS_THREADS) == 1


def test_import_leaves_the_environment_as_found():
    code = "import json, os; before = dict(os.environ); import fpproj; print(json.dumps(dict(os.environ) == before))"
    assert child_report(code, NO_BLAS_THREADS) is True


@needs_proc
def test_a_sweep_in_process_ends_with_one_thread(tmp_path):
    out = tmp_path / "report.csv"
    argv = ["sweep", "--config", str(sweep_config(tmp_path)), "--out", str(out)]
    code = f"import json; from fpproj import cli; code = cli.main({argv!r}); print(json.dumps([code, {THREADS}]))"
    assert child_report(code, NO_BLAS_THREADS) == [0, 1]
    assert out.read_text().startswith("p,n,m,family_id,")


@needs_proc
@pytest.mark.skipif(CPUS < 2, reason="a pool of two threads needs two usable cores")
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_callers_blas_thread_count_is_kept(name):
    code = f"import json, os, fpproj; print(json.dumps([{THREADS}, os.environ.get({name!r})]))"
    assert child_report(code, {**NO_BLAS_THREADS, name: "2"}) == [2, "2"]


@needs_proc
def test_numpy_imported_first_is_left_as_it_loaded():
    code = f"""if True:
        import json, os, numpy
        threads, env = {THREADS}, dict(os.environ)
        import fpproj
        print(json.dumps([threads, {THREADS}, env == dict(os.environ)]))
    """
    numpy_threads, threads, same_env = child_report(code, NO_BLAS_THREADS)
    assert (threads, same_env) == (numpy_threads, True)


# -- arguments checked before any work ----------------------------------------------


@pytest.mark.parametrize(
    "m, eps",
    [(1, "1e4300"), (1, "1e-4300"), (2, "1e4299")],
    ids=("numerator", "denominator", "cutoff"),
)
def test_sweep_refuses_an_eps_too_long_to_print(tmp_path, m, eps):
    # 1e4300 and 1e-4300 ended in Python's own digit-limit message, naming neither
    # key nor value; over F_5 at m = 2, 10^4299 prints but floor(eps 5^2) may not
    out = tmp_path / "report.csv"
    path = sweep_config(tmp_path, m=m, thresholds={"kind": "eps", "values": [1, eps]}, output=str(out))
    done = python("-m", "fpproj", "sweep", "--config", str(path), timeout=15)
    assert_one_error_line(done, f"threshold scale eps = {eps}", "4300 digits")
    assert not out.exists()


@pytest.mark.parametrize("m", [-10**9, 0, 3])
def test_sweep_refuses_an_m_out_of_range_before_any_threshold(tmp_path, m):
    # an eps cutoff took floor(eps 5^m), which for m = -10^9 ran until killed
    out = tmp_path / "report.csv"
    path = sweep_config(tmp_path, m=m, thresholds={"kind": "eps", "values": ["1/2"]}, output=str(out))
    done = python("-m", "fpproj", "sweep", "--config", str(path), timeout=15)
    assert_one_error_line(done, f"codimension m = {m} out of range [1, 2]")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--m", "4"), ("--m", "3"), ("--m", "0"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf")],
)
def test_identity_check_refuses_an_m_or_tol_out_of_range(tmp_path, flag, value):
    # --m 4 over n = 3 reported k = -1 and --m 0 a coset error; --tol nan and
    # -1 failed every check (exit 1), and --tol inf passed every one
    out = tmp_path / "id.csv"
    given = {"--m": "1", "--tol": "1e-6", flag: value}
    argv = [item for pair in given.items() for item in pair]
    done = fpproj("identity-check", "--p", "3", "--n", "3", "--trials", "1", "--out", str(out), *argv)
    assert_one_error_line(done, f"--m = {value} out of range [1, 2]" if flag == "--m" else f"{flag} must be")
    assert not out.exists()
