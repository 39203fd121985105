import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from fpproj import acceptance, cli
from fpproj.budgets import BudgetError
from fpproj.cli import main
from fpproj.families import (
    circle_family,
    load_family,
    moment_family,
    sample_random_family,
    spread_containing,
    spread_perp,
    RandomFamilyConfig,
)
from fpproj.field import AmbientSpace
from fpproj.fourier import coset_energy_spectral, dft, plancherel_defect
from fpproj.pointsets import random_point_set, save_point_set
from fpproj.projection import battery_projection_stats, family_projection_stats, fiber_counts
from fpproj.subspaces import SubspaceStack, enumerate_subspaces, serialize_subspace
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


def test_budget_flags_only_where_a_subcommand_reads_them(tmp_path, capsys):
    # a flag the subcommand would ignore is a usage error, not silently accepted
    cfg = write_config(tmp_path)
    refused = [
        ("count", "--p", "3", "--n", "3", "--k", "2", "--point-budget", "1"),
        ("random-family", "--p", "7", "--n", "3", "--m", "1", "--alpha", "3/2", "--seed", "1",
         "--point-budget", "1"),
        ("project", "--p", "3", "--n", "2", "--subspace", "0,1", "--set", "random:3:1",
         "--subspace-budget", "1"),
    ]  # fmt: skip
    for argv in refused:
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
    budgets = ("--point-budget", "200000", "--subspace-budget", "200000")
    for argv in (
        ("identity-check", "--p", "3", "--n", "2", "--m", "1", "--trials", "1"),
        ("examples", "moment", "--p", "7"),
        ("sweep", "--config", str(cfg), "--jobs", "1"),
    ):
        assert run(*argv, *budgets) == 0


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


def test_identity_check_point_budget_comes_from_the_sampler(tmp_path, capsys):
    # p^n = 101^3 = 1,030,301 exceeds the default point budget; |G(3,2)| = 10,303 does not
    out = tmp_path / "id.csv"
    args = ("identity-check", "--p", "101", "--n", "3", "--m", "1", "--out", str(out))
    assert run(*args, "--trials", "1") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "1030301 exceeds budget 100000" in captured.err
    assert not out.exists()
    # no trial draws no set, so no budget is reached
    assert run(*args, "--trials", "0") == 0
    assert out.read_text() == "p,n,m,trial,set_size,check,subspace,spatial,spectral,defect,pass\n"


def test_identity_check_enumerates_nothing_before_the_point_budget(tmp_path, capsys, monkeypatch):
    # the Grassmannian is counted against its budget first, but its members
    # are enumerated and named only once the first set has passed p^n's
    def no_enumeration(*args, **kwargs):
        raise AssertionError("G(n, n-m) enumerated before the first p^n check")

    monkeypatch.setattr(cli, "grassmannian", no_enumeration)
    monkeypatch.setattr(cli, "csv_subspace_name", no_enumeration)
    out = tmp_path / "id.csv"
    args = ("identity-check", "--p", "101", "--n", "3", "--m", "1", "--out", str(out))
    assert run(*args, "--trials", "1") == 3
    assert "1030301 exceeds budget 100000" in capsys.readouterr().err
    assert not out.exists()
    assert run(*args, "--trials", "0") == 0
    assert out.read_text() == "p,n,m,trial,set_size,check,subspace,spatial,spectral,defect,pass\n"
    # an over-budget Grassmannian is still refused first, by its count alone
    assert run(*args, "--trials", "0", "--subspace-budget", "10302") == 3
    assert "|G(3,2)| over F_101 = 10303 exceeds budget 10302" in capsys.readouterr().err


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
    assert np.array_equal(G.bases, sample_random_family(cfg).bases) and G.codim == 1


def test_random_family_rejects_coarse_alpha(capsys):
    # denominator above 12 is outside the config contract
    assert run("random-family", "--p", "7", "--n", "3", "--m", "1",
               "--alpha", "19/13", "--seed", "1") == 2


def test_zero_denominators_are_usage_errors(tmp_path, capsys):
    # Fraction("1/0") raises ZeroDivisionError; parse_fraction makes it a usage error
    assert run("random-family", "--p", "7", "--n", "3", "--m", "1", "--alpha", "1/0", "--seed", "1") == 2
    assert capsys.readouterr().err == "error: '1/0' has a zero denominator\n"
    out = tmp_path / "report.csv"
    cfg = tmp_path / "cfg.json"
    for overrides, where in (
        (dict(C="1/0"), f"{cfg}: C"),
        (dict(thresholds={"kind": "t", "values": [1, "1/0"]}), f"{cfg}: thresholds.values"),
        (dict(thresholds={"kind": "eps", "values": ["1/0"]}), f"{cfg}: thresholds.values"),
        (dict(families=["random:1/0:1"]), "family spec 'random:1/0:1'"),
    ):
        assert write_config(tmp_path, **overrides) == cfg
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {where}: '1/0' has a zero denominator\n"
        assert not out.exists()


def test_a_t_denominator_too_long_to_print_is_refused_by_its_text(tmp_path, capsys):
    # formatting the Fraction 1/10^4300 into the message raised Python's digit-limit error
    cfg = write_config(tmp_path, thresholds={"kind": "t", "values": [1, "1e-4300"]})
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {cfg}: thresholds.values: exponent 1e-4300 has denominator > 12\n"
    assert not out.exists()


def test_sweep_eps_is_a_scale_with_any_denominator(tmp_path):
    # eps is no exponent, so its denominator is not capped at 12 (0.001 was
    # refused as an exponent); its rows are the rows of the cutoffs floor(7 eps)
    eps, cutoffs = ["0.001", "0.31", "1.001", "1e-4000"], [0, 2, 7, 0]
    rows = {}
    for kind, values in (("eps", eps), ("N", cutoffs)):
        out = tmp_path / f"{kind}.csv"
        cfg = write_config(tmp_path, thresholds={"kind": kind, "values": values})
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        rows[kind] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[8] for row in rows["eps"]] == ["1/1000", "31/100", "1001/1000", "1/1" + "0" * 4000]
    assert [row[:7] + row[9:] for row in rows["eps"]] == [row[:7] + row[9:] for row in rows["N"]]


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


def test_examples_moment_checks_the_hyperplane_count_before_printing(capsys):
    # |G(4,3)| over F_13 = 2,380 exceeds a subspace budget of 2,000; 13^4 passes the point budget
    assert run("examples", "moment", "--p", "13", "--n", "4", "--subspace-budget", "2000") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "|G(4,3)| over F_13 = 2380 exceeds budget 2000" in captured.err
    assert run("examples", "moment", "--p", "13", "--n", "4", "--subspace-budget", "2380") == 0
    assert "hyperplane_max 3" in capsys.readouterr().out


def test_examples_point_budget_reaches_battery(capsys):
    # 47^3 = 103,823 points exceed the default point budget of
    # 100,000; a larger --point-budget must reach the battery's random sets
    for args in (("circle", "--p", "47"), ("moment", "--p", "47", "--n", "3")):
        assert run("examples", *args) == 3
        assert capsys.readouterr().out == ""
        assert run("examples", *args, "--point-budget", "200000") == 0
        assert "ratio union:flat+random N=8" in capsys.readouterr().out


@pytest.mark.parametrize("which, p, n", [("circle", 13, 3), ("moment", 7, 3)])
def test_examples_ratio_lines_equal_per_row_reference(which, p, n, capsys):
    # every ratio line, rebuilt from one Fraction report per (set, N) of the same battery
    G = circle_family(p) if which == "circle" else moment_family(p, n)
    sets = acceptance.standard_sets(G.ambient, base_seed=p)
    sizes, energies = battery_projection_stats([E for _, E in sets], G)
    expected, failed = [], False
    for (set_id, E), row_sizes, row_energies in zip(sets, sizes.tolist(), energies.tolist()):
        for N in (1, 2, 4, 8):
            count, _, _, ratio, _ = oracles.exceptional_report_from_stats(
                E.size, p, G.codim, row_sizes, row_energies, N
            )
            ok = ratio <= 16
            failed = failed or not ok
            verdict = "ok" if ok else "FAIL"
            expected.append(f"ratio {set_id} N={N} count={count} ratio={float(ratio):.12g} {verdict}")
    assert run("examples", which, "--p", str(p), "--n", str(n)) == (1 if failed else 0)
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("ratio ")] == expected
    assert len(expected) == 4 * len(sets)


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


def per_set_sweep(config, subspace_budget=None):
    """The sweep CSV and exit code, built one family, one set and one Fraction row at a time."""
    cfg = json.loads(config.read_text())
    ambient, m, C = AmbientSpace(cfg["p"], cfg["n"]), cfg["m"], Fraction(cfg["C"])
    kind, values = cfg["thresholds"]["kind"], cfg["thresholds"]["values"]
    lines = [EXPECTED_HEADER]
    failed = skipped = False
    for family_id in cfg["families"]:
        try:
            G, seed_field = cli.parse_family_spec(ambient, m, family_id, budget=subspace_budget)
        except BudgetError:
            G = None
        else:
            sc, sp = spread_containing(G).max_count, spread_perp(G).max_count
        for set_id in cfg["sets"]:
            E = cli.parse_set_spec(ambient, set_id)
            if G is not None:
                sizes, energies = family_projection_stats(E, G)
            for value in values:
                N, shown = cli._threshold_to_N(ambient, m, kind, value)
                prefix = f"{ambient.p},{ambient.n},{m},{family_id},"
                if G is None:
                    skipped = True
                    lines.append(f"{prefix},{set_id},{E.size},{kind},{shown},,,,,,,,skipped")
                    continue
                count, _, bound, ratio, _ = oracles.exceptional_report_from_stats(
                    E.size, ambient.p, m, sizes.tolist(), energies.tolist(), N
                )
                failed = failed or ratio > C
                lines.append(
                    f"{prefix}{len(G)},{set_id},{E.size},"
                    f"{kind},{shown},{count},{bound.numerator},{bound.denominator},"
                    f"{float(ratio):.12g},{sc},{sp},{seed_field},{1 if ratio <= C else 0}"
                )
    return "\n".join(lines) + "\n", 1 if failed else 3 if skipped else 0


def test_sweep_battery_rows_equal_per_set_rows(tmp_path):
    # one kernel call over the distinct members of every family gives the
    # rows of one call per (family, set); t = 25 makes N = floor(7^25),
    # past the int64 range
    sets = ["random:20:7", "flat:1:0,0,1", "moment", "random:1:3", "random:150:9"]
    # a family file that lists its members out of the Grassmannian's order, one twice
    members = enumerate_subspaces(AmbientSpace(7, 3), 2)
    listed = [members[i] for i in (40, 3, 17, 56, 0, 3, 29)]
    family_file = tmp_path / "family.txt"
    family_file.write_text("p=7,n=3,m=1\n" + "".join(serialize_subspace(W) + "\n" for W in listed))
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
        # the same spec twice, a file family and random subsets of full
        dict(families=["random:1.5:42", f"file:{family_file}", "full", "random:1.5:42", "random:2:5"],
             sets=sets, thresholds={"kind": "N", "values": [1, 3, 8]}),
        dict(families=[f"file:{family_file}"], sets=sets[:3], thresholds={"kind": "N", "values": [2, 5]}),
        # lines through the circle and the moment curve beside all lines
        dict(m=2, families=["circle", "moment", "full", "random:3/2:4", "moment"], sets=sets,
             thresholds={"kind": "N", "values": [1, 2, 6]}),
        # |G(3,2)| = 57 is over a subspace budget of 20: full and random are
        # skipped, the file family is counted
        dict(families=["full", f"file:{family_file}", "random:1.5:42"], sets=sets[:2],
             thresholds={"kind": "N", "values": [1, 4]}, budget=20),
        dict(families=["full"], sets=sets[:2], thresholds={"kind": "N", "values": [1]}, budget=20),
        # a failing row beside a skipped family exits 1
        dict(m=2, families=["circle", "full"], sets=sets[:1], C="1/100",
             thresholds={"kind": "N", "values": [1, 40]}, budget=20),
    ]  # fmt: skip
    for case in cases:
        budget = case.pop("budget", None)
        cfg = write_config(tmp_path, **case)
        out = tmp_path / "report.csv"
        flags = () if budget is None else ("--subspace-budget", str(budget))
        code = run("sweep", "--config", str(cfg), "--out", str(out), *flags)
        expected, expected_code = per_set_sweep(cfg, budget)
        assert out.read_text() == expected
        assert code == expected_code


def test_sweep_on_the_line_route_equals_per_set_rows(tmp_path):
    # F_3^4 and F_5^4 have fewer lines (40, 156) than G(4,2) has members
    # (130, 806), so the sweep's census takes line energies and
    # fiber-counts only its candidates; thresholds sit on both sides of
    # |E| and p^m, and a line of p points ties |E|^2 = N* energy at N* = 1
    cases = [
        dict(p=3, n=4, m=2, families=["full", "random:3:2", "random:5/2:1"],
             sets=["random:20:7", "flat:1:0,0,1,2", "flat:2:1,1,1,1", "moment", "random:1:3", "random:60:9"],
             thresholds={"kind": "N", "values": [4, 0, 2, 2, 9, 400, 1, 8, 19, 20, 21]}),
        dict(p=5, n=4, m=2, families=["full"], sets=["flat:1:0,1,2,3", "random:30:1", "moment"],
             thresholds={"kind": "N", "values": [1]}),
        dict(p=5, n=4, m=2, families=["random:3:4", "full"], sets=["random:40:2", "moment", "flat:2:0,0,0,1"],
             thresholds={"kind": "eps", "values": ["1/10", "1/5", "1/2", "1", "2"]}),
        dict(p=3, n=4, m=1, families=["full"], sets=["random:20:7", "moment"],
             thresholds={"kind": "N", "values": [1, 2, 3]}),
    ]  # fmt: skip
    for case in cases:
        cfg = write_config(tmp_path, **case)
        out = tmp_path / "report.csv"
        code = run("sweep", "--config", str(cfg), "--out", str(out))
        expected, expected_code = per_set_sweep(cfg)
        assert out.read_text() == expected
        assert code == expected_code


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


def test_sweep_skipped_rows_show_the_threshold_as_computed_rows_do(tmp_path):
    # |G(3,1)| = 57 exceeds a subspace budget of 10, so "full" is skipped;
    # the circle family is built without enumerating any Grassmannian
    values = [0.1, 1, 123456789012345.0, "3/12"]
    cfg = write_config(tmp_path, m=2, families=["full", "circle"],
                       thresholds={"kind": "eps", "values": values})  # fmt: skip
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--subspace-budget", "10") == 3
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    skipped = [row for row in rows if row[3] == "full"]
    computed = [row for row in rows if row[3] == "circle"]
    assert [row[-1] for row in skipped] == ["skipped"] * 4
    assert all(row[-1] in ("0", "1") for row in computed)
    shown = ["1/10", "1/1", "123456789012345/1", "1/4"]
    assert [row[8] for row in skipped] == [row[8] for row in computed] == shown


def test_sweep_point_budget_reaches_the_spread_profile(tmp_path, capsys):
    # 47^3 = 103,823 points exceed the default point budget of 100,000; a larger
    # --point-budget must reach the spread profile as well as the sets
    cfg = write_config(tmp_path, p=47, m=2, families=["circle"])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 3
    assert "103823 exceeds budget 100000" in capsys.readouterr().err
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--point-budget", "200000") == 0
    assert out.read_text().splitlines()[1].startswith("47,3,2,circle,48,random:20:7,20,N,1,")


def test_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    # a misspelt key would otherwise be ignored: here the report would go to stdout
    for overrides, key in (
        (dict(ouput="typo.csv"), "ouput"),
        (dict(thresholds={"kind": "N", "values": [1], "valus": [2]}), "thresholds.valus"),
    ):
        cfg = write_config(tmp_path, **overrides)
        assert run("sweep", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown key {key}" in captured.err
    cfg = write_config(tmp_path, output=str(tmp_path / "named.csv"))
    assert run("sweep", "--config", str(cfg)) == 0
    assert (tmp_path / "named.csv").read_text().startswith(EXPECTED_HEADER + "\n")


def test_sweep_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 7,\n  broken\n}')
    assert run("sweep", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_sweep_config_integer_past_the_digit_limit_names_the_config(tmp_path, capsys):
    # json.loads raises Python's digit-limit ValueError here, not a JSONDecodeError
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("[1, 2, 4]", "[1, " + "7" * 5001 + "]"))
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {cfg}: Exceeds the limit (4300 digits)")
    assert captured.err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("random:10", "set spec 'random:10' is not random:SIZE:SEED"),
        ("random:10:1:5", "set spec 'random:10:1:5': invalid literal for int()"),
        ("random:a:1", "set spec 'random:a:1': invalid literal for int()"),
        ("flat:x", "set spec 'flat:x': invalid literal for int()"),
        ("flat:1:0,y,1", "set spec 'flat:1:0,y,1': invalid literal for int()"),
        ("flat:1:0,1", "set spec 'flat:1:0,1': expected 3 coordinates, got 2"),
        ("circle:z", "set spec 'circle:z' is not circle"),
        ("moment:w", "set spec 'moment:w' is not moment"),
        ("circle:", "set spec 'circle:' is not circle"),
        ("flat:1:", "set spec 'flat:1:': invalid literal for int() with base 10: ''"),
    ],
)
def test_set_specs_refuse_fields_they_do_not_take_and_name_a_malformed_one(spec, message, capsys):
    # "moment:w" loaded the moment curve, and "random:10" failed with int()'s own message
    assert run("project", "--p", "5", "--n", "3", "--subspace", "1,0,0", "--set", spec) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ("full:x", "family spec 'full:x' is not full"),
        ("moment:w", "family spec 'moment:w' is not moment"),
        ("circle:z", "family spec 'circle:z' is not circle"),
        ("random:3/2", "family spec 'random:3/2' is not random:ALPHA:SEED"),
        ("random:x:1", "family spec 'random:x:1': Invalid literal for Fraction: 'x'"),
        ("random:3/2:", "family spec 'random:3/2:': invalid literal for int()"),
    ],
)
def test_family_specs_refuse_fields_they_do_not_take_and_name_a_malformed_one(tmp_path, spec, message, capsys):
    # "full:x" ran the full family and wrote "full:x" as its family_id
    cfg = write_config(tmp_path, p=5, n=3, m=2, families=["full", spec])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not out.exists()


def test_every_family_spec_returns_a_sorted_stack_of_distinct_members(tmp_path):
    a = AmbientSpace(5, 3)
    path = tmp_path / "family.txt"  # unsorted, with a repeated line
    path.write_text("p=5,n=3,m=2\n1,2,3\n0,0,1\n2,4,1\n1,0,0\n")
    specs = ["random:3/2:1", "circle", "moment", "full", f"file:{path}"]
    assert {spec.partition(":")[0] for spec in specs} == {form.partition(":")[0] for form in cli.FAMILY_FORMS}
    for spec in specs:
        G, _ = cli.parse_family_spec(a, 2, spec)
        members = sorted(set(G.members), key=lambda W: W.basis)
        assert isinstance(G, SubspaceStack) and G.distinct() is G and list(G) == members, spec
        assert G.codim == 2


def test_a_family_spec_over_the_budget_still_skips_its_rows(tmp_path):
    # parsing a spec's fields wraps no BudgetError, so the family is skipped (exit 3)
    with pytest.raises(BudgetError):
        cli.parse_family_spec(AmbientSpace(5, 3), 1, "full", budget=30)
    cfg = write_config(tmp_path, p=5, n=3, m=1, families=["full", "random:3/2:1"])
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--subspace-budget", "30") == 3
    assert [line.split(",")[-1] for line in out.read_text().splitlines()[1:]] == ["skipped"] * 6


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [[1]]})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [None]})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [{}]})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": ["two"]})),
        ("thresholds.values", dict(thresholds={"kind": "t", "values": [[1]]})),
        ("thresholds.values", dict(thresholds={"kind": "t", "values": ["one"]})),
        ("thresholds.values", dict(thresholds={"kind": "eps", "values": [None]})),
        ("C", dict(C=[1])),
        ("C", dict(C=None)),
        ("C", dict(C="sixteen")),
    ],
    ids=("N-list", "N-null", "N-object", "N-word", "t-list", "t-word", "eps-null", "C-list", "C-null", "C-word"),
)
def test_sweep_threshold_and_C_values_that_are_no_numbers_name_the_config_and_key(tmp_path, key, overrides, capsys):
    # an N value of [1], null or {} raised a TypeError traceback (exit 1), and a
    # t, eps or C that is no number printed "Invalid literal for Fraction" alone
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {cfg}: {key}: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_bad_coordinates_in_set_and_family_files_name_the_file_and_line(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("p=7,n=3\n0,0,1\nx,1,2\n")
    assert run("project", "--p", "7", "--n", "3", "--subspace", "1,0,0", "--set", f"file:{pts}") == 2
    assert capsys.readouterr().err == f"error: {pts}: line 3: invalid literal for int() with base 10: 'x'\n"
    family = tmp_path / "family.txt"
    family.write_text("p=7,n=3,m=1\n1,0,0;0,1,0\n1,0,0;0,1,0;0,0,y\n")
    cfg = write_config(tmp_path, families=[f"file:{family}"])
    assert run("sweep", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"error: {family}: line 3: invalid literal for int() with base 10: 'y'\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,1", "expected 3 coordinates, got 2"),
        ("0,y,1", "invalid literal for int() with base 10: 'y'"),
        ("6,0,0", "coordinate = 6 out of range [0, 4]"),
        ("0,-4,0", "coordinate = -4 out of range [0, 4]"),
        ("0,0_1,1", "invalid literal for int() with base 10: '0_1'"),
        ("0,\u0663,1", "invalid literal for int() with base 10: '\u0663'"),
    ],
    ids=("count", "integer", "above", "below", "underscore", "non-ascii-digit"),
)
@pytest.mark.parametrize("source", ["family-file", "point-file", "subspace-flag", "flat-offset"])
def test_every_coordinate_source_refuses_a_bad_row_and_names_itself(tmp_path, capsys, source, row, message):
    # family lines, --subspace and flat:K:OFFSET reduced 6 and -4 mod 5; all four now read text one way.
    # int() read 0_1 as 1 and the Arabic-Indic digit three as 3, which no file header accepts
    def project(subspace="1,0,0", set_spec="moment"):
        return run("project", "--p", "5", "--n", "3", "--subspace", subspace, "--set", set_spec)

    path = tmp_path / "input.txt"
    if source == "family-file":
        path.write_text(f"p=5,n=3,m=1\n1,0,0;0,1,0\n0,0,1;{row}\n", encoding="utf-8")
        config = write_config(tmp_path, p=5, families=[f"file:{path}"])
        code, context = run("sweep", "--config", str(config)), f"{path}: line 3"
    elif source == "point-file":
        path.write_text(f"p=5,n=3\n0,0,1\n{row}\n", encoding="utf-8")
        code, context = project(set_spec=f"file:{path}"), f"{path}: line 3"
    elif source == "subspace-flag":
        code, context = project(subspace=f"1,0,0;{row}"), f"--subspace '1,0,0;{row}'"
    else:
        code, context = project(set_spec=f"flat:1:{row}"), f"set spec 'flat:1:{row}'"
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {context}: {message}\n"


@pytest.mark.parametrize(
    "overrides, key, spelled",
    [
        (dict(C=None), "C", "null"),
        (dict(C=[1]), "C", "[1]"),
        (dict(C={"a": 1}), "C", '{"a": 1}'),
        (dict(thresholds={"kind": "t", "values": [None]}), "thresholds.values", "null"),
        (dict(thresholds={"kind": "t", "values": [[1, 2]]}), "thresholds.values", "[1, 2]"),
        (dict(thresholds={"kind": "eps", "values": [{"a": 1}]}), "thresholds.values", '{"a": 1}'),
    ],
    ids=("C-null", "C-list", "C-object", "t-null", "t-list", "eps-object"),
)
def test_a_rational_of_another_json_type_is_refused_in_the_configs_spelling(tmp_path, capsys, overrides, key, spelled):
    # null was reported as Invalid literal for Fraction: 'None', and {"a": 1} as "{'a': 1}"
    cfg = write_config(tmp_path, **overrides)
    assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {key}: expected a rational number, got {spelled}\n"


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("p", dict(p=1.5)),
        ("families", dict(families="full")),
        ("sets", dict(sets={"random:20:7": 1})),
        ("thresholds.kind", dict(thresholds={"kind": "k", "values": [1]})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": 4})),
        ("thresholds.values", dict(thresholds={"kind": "N", "values": [-1]})),
        ("output", dict(output=3)),
        ("C", dict(C=None)),
    ],
    ids=("p", "families", "sets", "kind", "values-type", "values-value", "output", "C"),
)
def test_every_config_value_error_is_spelled_config_colon_key(tmp_path, capsys, key, overrides):
    # type errors said "CONFIG: KEY must be ..." and value errors "CONFIG: KEY: ..."
    cfg = write_config(tmp_path, **overrides)
    assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {key}: ") and err.count("\n") == 1


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
        assert f"{key}: must be an integer" in capsys.readouterr().err
        assert not out.exists()
    # C and the t / eps values are rationals; Fraction(True) would run them as 1
    for overrides, budget in (
        (dict(C=True), "100"),
        (dict(thresholds={"kind": "t", "values": [True]}), "100"),
        (dict(thresholds={"kind": "eps", "values": [1, False]}), "100"),
        # every family skipped: the values are still checked
        (dict(thresholds={"kind": "t", "values": [True]}), "10"),
    ):
        cfg = write_config(tmp_path, **overrides)
        assert run("sweep", "--config", str(cfg), "--out", str(out), "--subspace-budget", budget) == 2
        assert "expected a rational number, got the bool" in capsys.readouterr().err
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
