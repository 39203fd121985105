import hashlib
import importlib.util
import json
import pathlib

import numpy as np

from fpproj import cli
from fpproj.cli import main
from fpproj.families import (
    load_family,
    sample_random_family,
    spread_containing,
    spread_perp,
    RandomFamilyConfig,
)
from fpproj.field import AmbientSpace
from fpproj.fourier import coset_energy_spectral, dft, plancherel_defect
from fpproj.pointsets import random_point_set, save_point_set
from fpproj.projection import family_projection_stats, fiber_counts
from fpproj.subspaces import enumerate_subspaces, serialize_subspace
from fractions import Fraction
import oracles

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def run(*argv):
    return main(list(argv))


# -- count ---------------------------------------------------------------


def test_count_matches(capsys):
    assert run("count", "--p", "3", "--n", "3", "--k", "2") == 0
    assert capsys.readouterr().out.strip() == "13 13"
    assert run("count", "--p", "2", "--n", "4", "--k", "2") == 0
    assert capsys.readouterr().out.strip() == "35 35"
    assert run("count", "--p", "5", "--n", "3", "--k", "0") == 0
    assert capsys.readouterr().out.strip() == "1 1"


def test_count_budget_exit(capsys):
    assert run("count", "--p", "5", "--n", "4", "--k", "2", "--subspace-budget", "10") == 3
    out = capsys.readouterr().out
    assert "806" in out and "SKIPPED" in out


# -- project ----------------------------------------------------------------


def test_project_output(capsys):
    assert run("project", "--p", "3", "--n", "2", "--subspace", "0,1",
               "--set", "random:3:1") == 0
    out = capsys.readouterr().out
    assert "image_size" in out


def test_project_bad_spec_is_usage_error(capsys):
    assert run("project", "--p", "3", "--n", "2", "--subspace", "0,1",
               "--set", "nonsense:1") == 2


def test_project_point_budget_reaches_random_sets(capsys):
    # p^n = 2^17 = 131072 exceeds the default point budget of 100,000
    args = ("project", "--p", "2", "--n", "17", "--subspace", ",".join("1" + "0" * 16),
            "--set", "random:3:1")
    assert run(*args) == 3
    assert run(*args, "--point-budget", "200000") == 0
    assert "set_size 3" in capsys.readouterr().out


def test_project_flat_set_needs_no_grassmannian(capsys):
    # |G(6,3)| over F_5 is 2,558,556, far above the subspace budget; a
    # flat takes span(e3, e4, e5) without enumerating G(6,3).
    assert run("project", "--p", "5", "--n", "6", "--subspace", "1,0,0,0,0,0",
               "--set", "flat:3:0,0,0,0,0,1") == 0
    out = capsys.readouterr().out
    assert "set_size 125" in out
    assert "image_size 125" in out


# -- identity-check ------------------------------------------------------------


def test_identity_check_passes(tmp_path, capsys):
    out = tmp_path / "id.csv"
    assert run("identity-check", "--p", "3", "--n", "3", "--m", "1",
               "--trials", "5", "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,n,m,trial")
    # 5 trials x (1 plancherel + 13 subspaces)
    assert len(lines) == 1 + 5 * 14
    assert all(line.endswith(",1") for line in lines[1:])


def test_identity_check_rows_match_per_member_functions(capsys):
    # the same rows built one subspace at a time from the per-W functions
    ambient = AmbientSpace(3, 3)
    expected = ["p,n,m,trial,set_size,check,subspace,spatial,spectral,defect,pass"]
    for trial in range(5):
        size = 1 + trial * 13 % 27
        E = random_point_set(ambient, size, seed=trial)
        table = dft(E)
        mass = float(np.sum(np.abs(table.values) ** 2))
        defect = plancherel_defect(E, table)
        ok = defect / (27 * size) <= 1e-6
        expected.append(
            f"3,3,1,{trial},{size},plancherel,,{27 * size},{mass:.12g},{defect:.12g},{int(ok)}"
        )
        for W in enumerate_subspaces(ambient, 2):
            counts = fiber_counts(E, W)
            spatial = int(np.dot(counts, counts))
            spectral = coset_energy_spectral(E, W, table=table)
            ser = serialize_subspace(W).replace(",", " ").replace(";", "|")
            ok = abs(spatial - spectral) <= 1e-6 * max(1, spatial)
            expected.append(
                f"3,3,1,{trial},{size},coset,{ser},{spatial},{spectral:.12g},"
                f"{abs(spatial - spectral):.12g},{int(ok)}"
            )
    assert run("identity-check", "--p", "3", "--n", "3", "--m", "1", "--trials", "5") == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_identity_check_zero_trials(tmp_path):
    out = tmp_path / "id.csv"
    assert run("identity-check", "--p", "3", "--n", "2", "--m", "1",
               "--trials", "0", "--out", str(out)) == 0
    assert out.read_text().count("\n") == 1  # header only


def test_identity_check_negative_trials_is_usage_error(tmp_path, capsys):
    out = tmp_path / "id.csv"
    assert run("identity-check", "--p", "3", "--n", "2", "--m", "1",
               "--trials", "-2", "--out", str(out)) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


# -- random-family ------------------------------------------------------------


def test_random_family_saves_loadable_file(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    assert run("random-family", "--p", "7", "--n", "3", "--m", "1",
               "--alpha", "3/2", "--seed", "42", "--out", str(out)) == 0
    G = load_family(out)
    cfg = RandomFamilyConfig(AmbientSpace(7, 3), 1, Fraction(3, 2), 42)
    assert G == sample_random_family(cfg)


def test_random_family_rejects_coarse_alpha(capsys):
    # denominator above 12 is outside the config contract
    assert run("random-family", "--p", "7", "--n", "3", "--m", "1",
               "--alpha", "19/13", "--seed", "1") == 2


# -- examples --------------------------------------------------------------------


def test_examples_moment(capsys):
    assert run("examples", "moment", "--p", "7", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "family_size 6" in out
    assert "hyperplane_max" in out


def test_examples_circle_rejects_p2(capsys):
    assert run("examples", "circle", "--p", "2") == 2


def test_examples_circle_rejects_other_n(capsys):
    assert run("examples", "circle", "--p", "5", "--n", "9") == 2
    assert "n = 3" in capsys.readouterr().err
    assert run("examples", "circle", "--p", "5", "--n", "3") == 0
    assert "family_size 4" in capsys.readouterr().out


def test_examples_point_budget_checked_before_building(capsys):
    # p^n = 125 and 13^4 = 28,561 points exceed a budget of 10: nothing is printed
    assert run("examples", "circle", "--p", "5", "--point-budget", "10") == 3
    assert capsys.readouterr().out == ""
    assert run("examples", "moment", "--p", "13", "--n", "4", "--point-budget", "10") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "28561" in captured.err


def test_examples_point_budget_reaches_battery(capsys):
    # 47^3 = 103,823 points exceed the default point budget of
    # 100,000; a larger --point-budget must reach the battery's random sets
    for args in (("circle", "--p", "47"), ("moment", "--p", "47", "--n", "3")):
        assert run("examples", *args) == 3
        assert capsys.readouterr().out == ""
        assert run("examples", *args, "--point-budget", "200000") == 0
        assert "ratio union:flat+random N=8" in capsys.readouterr().out


# -- sweep -------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    cfg = {
        "p": 7,
        "n": 3,
        "m": 1,
        "families": ["random:1.5:42"],
        "sets": ["random:20:7"],
        "thresholds": {"kind": "N", "values": [1, 2, 4]},
        "C": 16,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


EXPECTED_HEADER = (
    "p,n,m,family_id,family_size,set_id,set_size,threshold_kind,threshold,"
    "exceptional_count,bound_num,bound_den,ratio,spread_containing,spread_perp,seed,pass"
)


def test_sweep_ratios_within_bound(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 4
    assert all(line.endswith(",1") for line in lines[1:])


def test_sweep_is_byte_deterministic_and_parallel_safe(tmp_path):
    cfg = write_config(tmp_path, sets=["random:20:7", "flat:1:0,0,1", "moment"])
    a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
    assert run("sweep", "--config", str(cfg), "--out", str(a)) == 0
    assert run("sweep", "--config", str(cfg), "--out", str(b)) == 0
    assert run("sweep", "--config", str(cfg), "--out", str(c), "--jobs", "4") == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_empty_sets_gives_header_only(tmp_path):
    cfg = write_config(tmp_path, sets=[])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_text() == EXPECTED_HEADER + "\n"


def test_sweep_threshold_kinds(tmp_path):
    cfg = write_config(
        tmp_path,
        thresholds={"kind": "t", "values": ["1/2", "1"]},
    )
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert ",t,1/2," in lines[1]
    cfg2 = write_config(
        tmp_path,
        thresholds={"kind": "eps", "values": ["1/7"]},
    )
    assert run("sweep", "--config", str(cfg2), "--out", str(out)) == 0
    assert ",eps,1/7," in out.read_text().splitlines()[1]


def test_sweep_budget_cell_skipped(tmp_path):
    cfg = write_config(tmp_path, families=["full"])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out),
               "--subspace-budget", "10") == 3
    for line in out.read_text().splitlines()[1:]:
        assert line.endswith(",skipped")


def per_set_sweep(config):
    """The sweep CSV built one family, one set and one Fraction row at a time."""
    cfg = json.loads(config.read_text())
    ambient, m, C = AmbientSpace(cfg["p"], cfg["n"]), cfg["m"], Fraction(cfg["C"])
    kind, values = cfg["thresholds"]["kind"], cfg["thresholds"]["values"]
    lines = [EXPECTED_HEADER]
    for family_id in cfg["families"]:
        G, seed_field = cli.parse_family_spec(ambient, m, family_id)
        sc, sp = spread_containing(G).max_count, spread_perp(G).max_count
        for set_id in cfg["sets"]:
            E = cli.parse_set_spec(ambient, set_id)
            sizes, energies = family_projection_stats(E, G)
            for value in values:
                N, shown = cli._threshold_to_N(ambient, m, kind, value)
                count, _, bound, ratio, _ = oracles.exceptional_report_from_stats(
                    E.size, ambient.p, m, sizes.tolist(), energies.tolist(), N
                )
                lines.append(
                    f"{ambient.p},{ambient.n},{m},{family_id},{len(G)},{set_id},{E.size},"
                    f"{kind},{shown},{count},{bound.numerator},{bound.denominator},"
                    f"{float(ratio):.12g},{sc},{sp},{seed_field},{1 if ratio <= C else 0}"
                )
    return "\n".join(lines) + "\n"


def test_sweep_battery_rows_equal_per_set_rows(tmp_path):
    # one battery call per family gives the rows of one call per (family, set);
    # t = 25 makes N = floor(7^25), past the int64 range
    sets = ["random:20:7", "flat:1:0,0,1", "moment", "random:1:3", "random:150:9"]
    cases = [
        dict(families=["random:1.5:42", "full", "random:2:5"], sets=sets,
             thresholds={"kind": "N", "values": [4, 0, 2, 2, 9, 400]}),
        dict(families=["full", "random:1.5:42"], sets=sets,
             thresholds={"kind": "t", "values": ["1/2", "3/2", "1", "25"]}, C="1/3"),
        dict(families=["random:2:11"], sets=sets[:2],
             thresholds={"kind": "eps", "values": ["1/7", "0", "2"]}),
        # random:13/12:1 has no member over F_3; both kinds pass int64 here
        dict(p=3, families=["random:13/12:1", "full"], sets=["random:5:7", "flat:1:0,0,1", "moment"],
             thresholds={"kind": "N", "values": [10**20, 2**63, 1, 0]}),
        dict(p=3, families=["random:13/12:1"], sets=["random:5:7"],
             thresholds={"kind": "t", "values": ["41", "1/2"]}),
    ]  # fmt: skip
    for case in cases:
        cfg = write_config(tmp_path, **case)
        out = tmp_path / "report.csv"
        code = run("sweep", "--config", str(cfg), "--out", str(out))
        expected = per_set_sweep(cfg)
        assert out.read_text() == expected
        assert code == (1 if ",0\n" in expected else 0)


def test_sweep_sparse_matches_benchmark_reference(tmp_path):
    # the benchmark's sweep-sparse operation at seed 0 (perfbench is read, not changed)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["sweep-sparse"]
    config = workload.prepare(str(tmp_path), 0)
    assert run(*workload.argv(config, str(tmp_path))) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert digest == reference["sweep-sparse"]


def test_sweep_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 7,\n  broken\n}')
    assert run("sweep", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_sweep_rejects_bools_and_floats_where_integers_belong(tmp_path, capsys):
    # int() would read 5.9 as 5 and true as 1; the config is refused instead
    out = tmp_path / "report.csv"
    cases = [
        ("p", dict(p=5.9)),
        ("p", dict(p=True)),
        ("n", dict(n=3.0)),
        ("m", dict(m=1.5)),
        ("m", dict(m=False)),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [2.7, 1]})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [2, True]})),
        # skipped families would print the values as given: they are checked first
        ("thresholds.values", dict(families=["full"], thresholds={"kind": "N", "values": [2.0]})),
    ]
    for key, overrides in cases:
        cfg = write_config(tmp_path, **overrides)
        assert run("sweep", "--config", str(cfg), "--out", str(out), "--subspace-budget", "10") == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_accepts_integer_strings_and_fractional_exponents(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("sweep", "--config", str(write_config(tmp_path)), "--out", str(a)) == 0
    cfg = write_config(tmp_path, p="7", n="3", m="1", thresholds={"kind": "N", "values": ["1", 2, "4"]})
    assert run("sweep", "--config", str(cfg), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    # t and eps values are exact rationals, so a float there is still read exactly
    cfg = write_config(tmp_path, thresholds={"kind": "t", "values": [1.5, 0.5]})
    assert run("sweep", "--config", str(cfg), "--out", str(a)) == 0
    assert ",t,3/2," in a.read_text().splitlines()[1]


def test_sweep_file_set_round_trip(tmp_path):
    ambient = AmbientSpace(7, 3)
    E = random_point_set(ambient, 15, seed=9)
    pts = tmp_path / "pts.txt"
    save_point_set(E, pts)
    cfg = write_config(tmp_path, sets=[f"file:{pts}"])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert ",15," in out.read_text().splitlines()[1]


# -- accept ---------------------------------------------------------------------------


def test_accept_writes_artifacts_and_passes(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert run("accept", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    for i in range(1, 13):
        assert f"[criterion {i:2d}] PASS" in printed
    files = sorted(f.name for f in out.iterdir())
    assert len(files) == 12 and files[0].startswith("c01_")
