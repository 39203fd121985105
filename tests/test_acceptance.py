"""Acceptance gate: every criterion runs at its stated tolerance.

The whole suite is computed once per test session (criteria 1..11 run
twice so the determinism criterion can compare artifact bytes); each
test prints its criterion's pass/fail line and asserts it.  That run
also logs, per pass and in whichever process ran the pass, the order
of its criteria, which random-model cells were sampled and how full
every cache of the package was when the pass began.
"""

import hashlib
import json
import os
import pathlib
import time
from collections import Counter
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpproj.projection
from fpproj import acceptance, cli
from fpproj.families import RandomFamilyConfig, sample_random_family, spread_containing, spread_perp
from fpproj.field import AmbientSpace, decode, encode
from fpproj.projection import battery_projection_stats, stacked_census
import oracles

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


# run_suite's own condition for forking pass 2: a BLAS thread count set in
# the environment leaves this process a second thread, and then the fork
# tests are skipped, not failed
FORKS = acceptance._second_pass_cpus() is not None


@pytest.fixture(scope="module")
def logged_suite(tmp_path_factory):
    """run_suite() with its criteria, stacked draws and grid stats calls logged per pass.

    Every record is one line of JSON that the process making it appends
    to one file, with its pid, so a pass run by a forked child is logged
    too.  A pass is one process's run of all the criteria.  Per pass,
    order lists the criteria in the order they ran, caches the size of
    every package cache when its first criterion began (the criteria run
    once before the suite, and filled holds the sizes they left), draws counts
    each acceptance.sample_random_families call by (p, m, alpha, seeds),
    and kernel lists the (p, m, member count) of each
    fpproj.projection.census_stats call (the one family_census makes)
    over more than one battery, which only the grid makes
    (battery_census passes one).
    """
    log = tmp_path_factory.mktemp("suite") / "log.jsonl"
    caches = acceptance.package_caches()
    draw = acceptance.sample_random_families
    stats = fpproj.projection.census_stats

    def record(**entry):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), **entry}) + "\n")

    def logged(index, criterion):
        def run():
            record(criterion=index, caches={name: cache.cache_info().currsize for name, cache in caches.items()})
            return criterion()

        return run

    def counted_draw(cfgs, *args, **kwargs):
        cfgs = tuple(cfgs)
        record(draw=[cfgs[0].ambient.p, cfgs[0].m, str(cfgs[0].alpha), [cfg.seed for cfg in cfgs]])
        return draw(cfgs, *args, **kwargs)

    def counted_stats(batteries, G, battery_of, thresholds, *args):
        batteries = tuple(batteries)
        if len(batteries) > 1:
            record(kernel=[G.ambient.p, G.codim, len(G)])
        return stats(batteries, G, battery_of, thresholds, *args)

    criteria = acceptance.CRITERIA
    for criterion in criteria:  # fill the caches a pass uses, so that only run_pass can empty them
        criterion()
    filled = {name: cache.cache_info().currsize for name, cache in caches.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "CRITERIA", tuple(logged(i, fn) for i, fn in enumerate(criteria, 1)))
        mp.setattr(acceptance, "sample_random_families", counted_draw)
        mp.setattr(fpproj.projection, "census_stats", counted_stats)
        suite = acceptance.run_suite()
    current, passes = {}, []
    for entry in map(json.loads, log.read_text(encoding="utf-8").splitlines()):
        pid = entry["pid"]
        if "criterion" in entry and (pid not in current or len(current[pid]["order"]) == len(criteria)):
            current[pid] = {"pid": pid, "order": [], "caches": entry["caches"], "draws": Counter(), "kernel": []}
            passes.append(current[pid])
        logged_pass = current[pid]
        if "criterion" in entry:
            logged_pass["order"].append(entry["criterion"])
        elif "draw" in entry:
            p, m, alpha, seeds = entry["draw"]
            logged_pass["draws"][(p, m, Fraction(alpha), tuple(seeds))] += 1
        else:
            logged_pass["kernel"].append(tuple(entry["kernel"]))
    passes.sort(key=lambda logged: logged["pid"] != os.getpid())  # a child may log first; its pass is pass 2
    return suite, passes, filled


@pytest.fixture(scope="module")
def suite(logged_suite):
    return logged_suite[0]


def _check(suite, index):
    result = suite.results[index - 1]
    assert result.index == index
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_grassmannian_counts(suite):
    result = _check(suite, 1)
    # p in {2,3,5}, n in 1..4, 0 <= k <= n: 3 * (2+3+4+5) cells
    assert len(result.rows) == 42


def test_criterion_02_membership_counts(suite):
    result = _check(suite, 2)
    assert all(row[4] == row[5] == row[6] for row in result.rows)


def test_criterion_03_rank_nullity_duality(suite):
    _check(suite, 3)


def test_criterion_04_plancherel(suite):
    result = _check(suite, 4)
    assert len(result.rows) == 400
    assert max(row[5] for row in result.rows) < 1e-6


def test_criterion_05_coset_identity(suite):
    result = _check(suite, 5)
    # 20 sets x |G(n, n-m)| per configuration
    assert len(result.rows) == 20 * (13 + 13 + 31 + 31 + 130)


def test_criterion_06_pair_counting_chain(suite):
    _check(suite, 6)


def test_criterion_07_explicit_constants(suite):
    result = _check(suite, 7)
    # 50 sets per prime; small-branch sets contribute one row per valid t
    assert len({row[1] for p in (11, 13) for row in result.rows if row[0] == p}) >= 50


def test_criterion_08_random_model_ratios(suite):
    result = _check(suite, 8)
    ratio_rows = [row for row in result.rows if row[0] == "random-model"]
    assert len(ratio_rows) == 6400
    assert all(row[-1] for row in ratio_rows)


def test_criterion_09_size_concentration(suite):
    result = _check(suite, 9)
    assert len(result.rows) == 202  # 200 seeds + 2 summary rows


def test_criterion_10_circle_family(suite):
    _check(suite, 10)


def test_criterion_11_moment_family(suite):
    _check(suite, 11)


def test_criterion_12_determinism(suite):
    result = _check(suite, 12)
    assert all(status == "identical" for _, status in result.rows)


def test_artifacts_round_trip(tmp_path, suite):
    paths = acceptance.write_artifacts(suite, tmp_path)
    assert len(paths) == 12
    for result, path in zip(suite.results, paths):
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == result.csv


def test_artifacts_match_benchmark_reference(suite):
    # the digest perfbench's accept workload checks: sorted artifact
    # names, each hashed as name NUL data NUL
    digest = hashlib.sha256()
    for result in sorted(suite.results, key=lambda r: r.artifact_name()):
        digest.update(result.artifact_name().encode() + b"\0" + result.csv.encode() + b"\0")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["accept"]
    assert digest.hexdigest() == reference


# -- random-model cells shared by criteria 6 and 8 ------------------------------


def test_each_random_model_group_built_once_per_pass(logged_suite):
    # every (p, m, alpha) is drawn once per pass over all 20 seeds, so each
    # of the 160 cells is sampled once; each (p, m) gets one kernel call
    _, passes, _ = logged_suite
    grid = acceptance.random_model_grid()
    draws = Counter((p, m, alpha, tuple(range(20))) for p, m, alpha in grid)
    groups = {(p, m) for p, m, _ in grid}
    assert len(draws) == 8 and len(groups) == 4
    assert len(passes) == 2
    for logged in passes:
        assert logged["draws"] == draws
        assert sorted((p, m) for p, m, _ in logged["kernel"]) == sorted(groups)
    assert sum(len(logged["kernel"]) for logged in passes) == 8
    # one member-battery pair per member of a seed's union of families,
    # against one per member of each cell
    unions = cells = 0
    for p, m in groups:
        for seed in range(20):
            families = [
                sample_random_family(RandomFamilyConfig(AmbientSpace(p, 3), m, alpha, seed))
                for row_p, row_m, alpha in grid
                if (row_p, row_m) == (p, m)
            ]
            unions += len(set().union(*(G.members for G in families)))
            cells += sum(len(G) for G in families)
    for logged in passes:
        assert sum(K for *_, K in logged["kernel"]) == unions == 2150
    assert cells == 3378


def per_cell_route(p, m, alpha, seed):
    """A random-model cell built on its own: one draw, battery, kernel call and census."""
    ambient = AmbientSpace(p, 3)
    G = sample_random_family(RandomFamilyConfig(ambient, m, alpha, seed))
    if len(G) == 0:
        return G, (), None
    sets = tuple(acceptance.standard_sets(ambient, base_seed=seed * 100 + m))
    points = [E for _, E in sets]
    stats = battery_projection_stats(points, G)
    census = stacked_census((points,), None, m, *stats, (1, 2, 4, 8), Fraction(16))[0]
    return G, sets, census


def test_stacked_grid_equals_per_cell_route():
    acceptance.clear_caches()
    empty = 0
    for p, m, alpha in acceptance.random_model_grid():
        for seed in range(20):
            G, sets, census = acceptance.random_model_cell(p, m, alpha, seed)
            ref_G, ref_sets, ref_census = per_cell_route(p, m, alpha, seed)
            assert G.ambient == ref_G.ambient and np.array_equal(G.bases, ref_G.bases)
            assert G.members == ref_G.members
            assert sets == ref_sets
            if ref_census is None:
                assert census is None
                empty += 1
                continue
            # every column equal in shape, dtype and value, and so every cell
            assert census.thresholds == ref_census.thresholds == (1, 2, 4, 8)
            for column, ref_column in zip(census.columns(), ref_census.columns()):
                assert column.shape == ref_column.shape == (10, 4)
                assert column.dtype == ref_column.dtype
                assert column.tolist() == ref_column.tolist()
            cells, ref_cells = oracles.census_tuples(census), oracles.census_tuples(ref_census)
            assert oracles.typed(cells) == oracles.typed(ref_cells)
    assert empty < 160
    with pytest.raises(ValueError, match="grid cell"):
        acceptance.random_model_cell(7, 1, Fraction(5, 4), 20)
    acceptance.clear_caches()


def test_stacked_spreads_equal_per_family_spreads_on_the_grid():
    # one stacked_spread per grid row and variant, against each family's
    # own spread and against a count over its listed span points
    acceptance.clear_caches()
    for p, m, alpha in acceptance.random_model_grid():
        for variant, spread in (("contains", spread_containing), ("perp", spread_perp)):
            counts, codes = acceptance.random_model_spreads(p, m, alpha, variant)
            assert counts.shape == codes.shape == (20,)
            for seed in range(20):
                G, _, _ = acceptance.random_model_cell(p, m, alpha, seed)
                count, witness = spread(G)
                rows = G.bases if variant == "contains" else G.annihilators
                ref_count, ref_code = oracles.spread_by_span_points(p, 3, rows)
                assert counts[seed] == count == ref_count
                assert witness == (None if ref_code is None else decode(G.ambient, ref_code))
                assert codes[seed] == (0 if witness is None else encode(witness))
    acceptance.clear_caches()


def test_stacked_standard_sets_equal_one_battery_per_seed():
    for ambient in (AmbientSpace(7, 3), AmbientSpace(3, 2), AmbientSpace(2, 3)):
        seeds = [0, 5, 101, 2001, 5]
        stacked = acceptance.stacked_standard_sets(ambient, seeds)
        assert len(stacked) == len(seeds)
        for seed, battery in zip(seeds, stacked):
            assert battery == acceptance.standard_sets(ambient, seed)
            names = [set_id for set_id, _ in battery]
            assert names[7:] == ["flat:1", "flat:2", "union:flat+random"]
            flat = battery[7][1]
            assert flat.codes.tolist() == sorted(set(battery[9][1].codes.tolist()) & set(flat.codes.tolist()))
    assert acceptance.stacked_standard_sets(AmbientSpace(7, 3), []) == []


def test_every_cache_is_empty_when_a_pass_starts(logged_suite):
    # criterion 12 compares two independent computations: no pass may
    # read a value cached by the one before it, or by a run before the suite
    _, passes, filled = logged_suite
    names = set(acceptance.package_caches())
    assert {name for name, size in filled.items() if size} >= {
        "fpproj.acceptance._random_model_group",
        "fpproj.field.digit_table",
        "fpproj.field.power_vector",
        "fpproj.subspaces._grassmannian",
    }
    assert names >= {
        "fpproj.acceptance._random_model_group",
        "fpproj.field.digit_table",
        "fpproj.field.power_vector",
        "fpproj.subspaces._grassmannian",
        "fpproj.subspaces.perp",
        "fpproj.subspaces.span_codes",
    }
    assert len(passes) == 2
    for logged in passes:
        assert logged["caches"] == dict.fromkeys(names, 0)


def test_pass_two_runs_in_reverse_order_in_another_process(logged_suite):
    # each criterion builds what it needs both after the others and before
    # them; where it can fork, pass 2 runs in a forked child, whose pass is logged
    _, passes, _ = logged_suite
    assert [logged["order"] for logged in passes] == [list(range(1, 12)), list(range(11, 0, -1))]
    pids = [logged["pid"] for logged in passes]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == (2 if FORKS else 1)


@pytest.mark.parametrize("criterion", acceptance.CRITERIA)
def test_random_model_criterion_alone_matches_suite(suite, criterion):
    # any criterion, run alone in this process after the suite: output that
    # depends on state an earlier run left (a module-level counter, a cache
    # clear_caches does not reach, id() order) differs from the suite's,
    # which two passes forked from one clean state would not show
    acceptance.clear_caches()
    result = criterion()
    assert result.csv == suite.results[result.index - 1].csv
    acceptance.clear_caches()


def _fake_criterion(index, value):
    """A criterion with one cell, value(), computed when it runs."""

    def criterion():
        return acceptance.CriterionResult(index, f"fake{index}", True, "fake", ("value",), ((value(),),))

    return criterion


def _no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.skipif(not FORKS, reason="pass 2 runs in a forked child only with two CPUs and one thread")
def test_a_criterion_whose_csv_embeds_its_pid_fails_accept(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", (_fake_criterion(1, lambda: 7), _fake_criterion(2, os.getpid)))
    assert cli.main(["accept", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[criterion  1] PASS" in out
    assert "[criterion 12] FAIL  determinism: mismatched artifacts: ['c02_fake2.csv']" in out
    rows = (tmp_path / "c12_determinism.csv").read_text(encoding="utf-8")
    assert rows == "artifact,status\nc01_fake1.csv,identical\nc02_fake2.csv,MISMATCH\n"
    assert (tmp_path / "c02_fake2.csv").read_text(encoding="utf-8") == f"value\n{os.getpid()}\n"
    assert _no_process_left()


@pytest.mark.skipif(not FORKS, reason="pass 2 runs in a forked child only with two CPUs and one thread")
def test_a_criterion_failing_in_the_child_raises_and_leaves_no_process(monkeypatch):
    parent, affinity = os.getpid(), os.sched_getaffinity(0)

    def fails_in_the_child():
        if os.getpid() != parent:
            raise ZeroDivisionError("raised in the child")
        return 0

    monkeypatch.setattr(acceptance, "CRITERIA", (_fake_criterion(1, lambda: 7), _fake_criterion(2, fails_in_the_child)))
    with pytest.raises(RuntimeError, match="(?s)exit 1.*ZeroDivisionError: raised in the child"):
        acceptance.run_suite()
    assert _no_process_left()
    assert os.sched_getaffinity(0) == affinity


@pytest.mark.skipif(not FORKS, reason="pass 2 runs in a forked child only with two CPUs and one thread")
def test_an_interrupt_in_the_parent_kills_the_child_and_reaps_it(monkeypatch):
    parent, affinity = os.getpid(), os.sched_getaffinity(0)

    def interrupted_or_stuck():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # only the parent's kill ends the child in time
        return 0

    monkeypatch.setattr(acceptance, "CRITERIA", (_fake_criterion(1, interrupted_or_stuck),))
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        acceptance.run_suite()
    assert time.monotonic() - began < 30
    assert _no_process_left()
    assert os.sched_getaffinity(0) == affinity


def test_one_cpu_runs_both_passes_here_with_identical_artifacts(suite, monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    in_process = acceptance.run_suite()
    assert [r.artifact_name() for r in in_process.results] == [r.artifact_name() for r in suite.results]
    assert [r.csv for r in in_process.results] == [r.csv for r in suite.results]
    assert [r.line() for r in in_process.results] == [r.line() for r in suite.results]


# -- CSV cell rendering ----------------------------------------------------------------


def _isinstance_cell(value):
    # the rendering _cell had before it dispatched on the exact type
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class _Level(IntEnum):
    HIGH = 2


class _Tag(str):
    pass


class _Ratio(Fraction):
    pass


@pytest.mark.parametrize(
    "value",
    [
        True, False, 0, 1, -7, 2**70,
        0.1, -2.5e-7, 3.0, 1 / 3, float("inf"), float("nan"),
        Fraction(3, 4), Fraction(-5), Fraction(0),
        "", "random:30:7", "alpha=5/4",
        np.int64(7), np.float64(0.25), np.bool_(True), None,
        _Level.HIGH, _Tag("flat:1"), _Ratio(7, 3), np.float32(0.1),
    ],
    ids=repr,
)
def test_cell_matches_isinstance_rendering(value):
    # True must render "1", not str(True); subclasses render as their nearest
    # base in the table, other numpy scalars take str
    assert acceptance._cell(value) == _isinstance_cell(value)


# -- the column-wise CSV writer ----------------------------------------------------------

_CELL_VALUES = {
    "int": st.integers(-(2**70), 2**70),
    "str": st.text(max_size=4),
    "empty": st.just(""),
    "bool": st.booleans(),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "fraction": st.fractions(),
    "numpy": st.one_of(
        st.integers(-(2**62), 2**62).map(np.int64),
        st.floats(width=32).map(np.float32),
        st.floats().map(np.float64),
        st.booleans().map(np.bool_),
    ),
    "subclass": st.sampled_from([_Level.HIGH, _Tag("flat:1"), _Tag(""), _Ratio(7, 3), _Ratio(2)]),
    # equal values that render differently: a lookup must not merge them
    "equal": st.sampled_from([1, True, Fraction(1), 1.0, 0, False, Fraction(0), 0.0, -0.0, "1", "0"]),
}


@st.composite
def csv_tables(draw):
    """(header, rows): columns of one kind or a mix of kinds, rows of one width."""
    width = draw(st.integers(0, 6))
    height = draw(st.integers(0, 8))
    columns = []
    for _ in range(width):
        kinds = draw(st.lists(st.sampled_from(sorted(_CELL_VALUES)), min_size=1, max_size=3, unique=True))
        values = st.one_of(*(_CELL_VALUES[kind] for kind in kinds))
        columns.append(draw(st.lists(values, min_size=height, max_size=height)))
    header = [f"c{i}" for i in range(width)]
    return header, [tuple(column[r] for column in columns) for r in range(height)]


@settings(max_examples=300, deadline=None)
@given(csv_tables())
def test_csv_text_matches_per_cell_rendering(table):
    header, rows = table
    expected = oracles.csv_text_by_cell(header, rows)
    assert acceptance.csv_text(header, rows) == expected
    assert acceptance.csv_text(header, tuple(rows)) == expected
    assert acceptance.csv_text(header, iter(rows)) == expected


def test_csv_text_edge_shapes():
    for rows in ([], [()], [(), ()]):
        assert acceptance.csv_text(("x", "y"), rows) == oracles.csv_text_by_cell(("x", "y"), rows)
    with pytest.raises(ValueError, match="one width"):
        acceptance.csv_text(("x", "y"), [(1, "a"), (True,), (), (Fraction(1, 2), 2.5, None)])
    assert acceptance.csv_text(("x",), []) == "x\n"
    assert acceptance.csv_text((), [(), ()]) == "\n\n\n"
    # one column holding True, 1 and Fraction(1): equal keys, three renderings
    rows = [(True,), (1,), (Fraction(1),), (np.bool_(True),), (1.0,), ("1",)]
    assert acceptance.csv_text(("v",), rows) == "v\n1\n1\n1/1\nTrue\n1\n1\n"
    for column, text in (
        ([1, Fraction(1), 1], "1\n1/1\n1"),
        ([Fraction(0), 0], "0/1\n0"),
        ([0.0, -0.0, 0.0], "0\n-0\n0"),
        ([-0.0, "", 0.0], "-0\n\n0"),
        ([True, 1, "x"], "1\n1\nx"),
    ):
        assert acceptance.csv_text(("v",), [(v,) for v in column]) == f"v\n{text}\n"
    assert acceptance.csv_text(("v",), [(np.bool_(False),), (np.bool_(True),)]) == "v\nFalse\nTrue\n"
