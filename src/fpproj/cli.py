"""Command-line front end: counts, projections, identity checks, sweeps.

Exit codes: 0 success, 1 assertion/bound failure, 2 usage or parse
error, 3 enumeration budget exceeded.  Every report is deterministic
given its arguments (seeds included): rerunning a sweep or the
acceptance suite reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import acceptance
from .budgets import BudgetError, DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET, check_budget
from .exact import MAX_DECIMAL_EXPONENT, MAX_POWER_BITS, floor_mul_pow, floor_pow, parse_fraction
from .families import (
    RandomFamilyConfig,
    circle_family,
    full_family,
    hyperplane_intersection_max,
    load_family,
    moment_family,
    sample_random_family,
    save_family,
    spread_perp,
    stacked_spread,
)
from .field import AmbientSpace, FpVector, check_range, decode, format_point, gaussian_binomial, parse_point
from .fourier import dft, plancherel_defect, spectral_mass, verify_coset_identities
from .pointsets import (
    PointSet,
    affine_flat_set,
    circle_set,
    load_point_set,
    moment_curve_set,
    random_point_set,
    read_text,
    with_context,
    write_text,
)
from .projection import family_census, project
from .subspaces import (
    SubspaceStack,
    csv_subspace_name,
    first_subspace,
    grassmannian,
    grassmannian_size,
    parse_subspace,
    serialize_subspace,
    stack_union,
)

SWEEP_HEADER = (
    "p,n,m,family_id,family_size,set_id,set_size,threshold_kind,threshold,"
    "exceptional_count,bound_num,bound_den,ratio,spread_containing,spread_perp,seed,pass"
).split(",")
IDENTITY_HEADER = "p,n,m,trial,set_size,check,subspace,spatial,spectral,defect,pass".split(",")
CONFIG_KEYS = ("p", "n", "m", "families", "sets", "thresholds", "C", "output")
THRESHOLD_KEYS = ("kind", "values")

MAX_EXPONENT_DENOMINATOR = 12


def _exponent(value) -> Fraction:
    frac = parse_fraction(value)
    if frac.denominator > MAX_EXPONENT_DENOMINATOR:  # shown as given: frac may be too long to print
        raise ValueError(f"exponent {value} has denominator > {MAX_EXPONENT_DENOMINATOR}")
    return frac


# ---------------------------------------------------------------------------
# spec parsers shared by `project`, `sweep` and `examples`
# ---------------------------------------------------------------------------

SET_FORMS = ("random:SIZE:SEED", "flat:K:OFFSET", "flat:K", "circle", "moment", "file:PATH")
FAMILY_FORMS = ("random:ALPHA:SEED", "circle", "moment", "full", "file:PATH")


def _spec_fields(what: str, spec: str, forms, parsers) -> tuple[str, dict]:
    """(kind, fields by name) of spec by the first of forms with its kind and field count; errors name the spec.

    The last field takes the rest of the spec (a PATH may hold ':'); parsers read the fields they name, int the others.
    """
    kind, sep, rest = spec.partition(":")
    shapes = [form.split(":") for form in forms if form.partition(":")[0] == kind]
    if not shapes:
        raise ValueError(f"unknown {what} spec {spec!r}")
    for _, *names in shapes:
        texts = rest.split(":", len(names) - 1) if sep else []
        if len(texts) == len(names):
            fields = ((name, parsers.get(name, int)(text)) for name, text in zip(names, texts))
            return kind, with_context(f"{what} spec {spec!r}", dict, fields)  # dict runs each parser
    raise ValueError(f"{what} spec {spec!r} is not {' or '.join(':'.join(shape) for shape in shapes)}")


def parse_set_spec(ambient: AmbientSpace, spec: str, point_budget=DEFAULT_POINT_BUDGET) -> PointSet:
    """One of SET_FORMS; a flat without OFFSET passes through 0."""
    check_budget(ambient.point_count, point_budget, "p^n for point sets")
    parsers = {"OFFSET": lambda text: parse_point(ambient, text), "PATH": str}
    kind, fields = _spec_fields("set", spec, SET_FORMS, parsers)
    if kind == "random":
        return random_point_set(ambient, fields["SIZE"], fields["SEED"], budget=point_budget)
    if kind == "flat":
        return affine_flat_set(first_subspace(ambient, fields["K"]), fields.get("OFFSET", FpVector.zero(ambient)))
    if kind == "circle":
        if ambient.n != 3:
            raise ValueError("the circle set lives in n = 3")
        return circle_set(ambient.p)
    if kind == "moment":
        return moment_curve_set(ambient.p, ambient.n)
    return load_point_set(fields["PATH"], ambient=ambient)


def parse_family_spec(
    ambient: AmbientSpace, m: int, spec: str, budget=DEFAULT_SUBSPACE_BUDGET
) -> tuple[SubspaceStack, str]:
    """One of FAMILY_FORMS.

    Returns (family, seed_field) where seed_field is the seed for the
    random model and '' otherwise.
    """
    kind, fields = _spec_fields("family", spec, FAMILY_FORMS, {"ALPHA": _exponent, "PATH": str})
    if kind == "random":
        cfg = RandomFamilyConfig(ambient, m, fields["ALPHA"], fields["SEED"])
        return sample_random_family(cfg, budget=budget), str(fields["SEED"])
    if kind == "circle":
        if ambient.n != 3 or m != 2:
            raise ValueError("the circle family needs n = 3 and m = 2")
        return circle_family(ambient.p), ""
    if kind == "moment":
        if m != ambient.n - 1:
            raise ValueError("the moment family needs m = n - 1")
        return moment_family(ambient.p, ambient.n), ""
    if kind == "full":
        return full_family(ambient, m, budget=budget), ""
    return load_family(fields["PATH"], ambient=ambient, m=m), ""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write(text: str, path) -> None:
    """Write a report to path, or to stdout when no path is given."""
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_count(args) -> int:
    ambient = AmbientSpace(args.p, args.n)  # checks p^n before the formula raises p to n
    formula = gaussian_binomial(args.n, args.k, args.p)
    try:
        count = len(grassmannian(ambient, args.k, budget=args.subspace_budget))
    except BudgetError:
        print(f"{formula} SKIPPED(budget)")
        return 3
    print(f"{formula} {count}")
    return 0 if count == formula else 1


def cmd_project(args) -> int:
    ambient = AmbientSpace(args.p, args.n)
    W = with_context(f"--subspace {args.subspace!r}", parse_subspace, ambient, args.subspace)
    E = parse_set_spec(ambient, args.set, point_budget=args.point_budget)
    image = project(E, W)
    reps = sorted(l.representative for l in image.labels)
    print(f"set_size {E.size}")
    print(f"subspace {serialize_subspace(W)}")
    print(f"image_size {image.size}")
    for rep in reps:
        print("coset " + format_point(decode(ambient, rep).coords))
    return 0


def cmd_identity_check(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    check_range("--m", args.m, 1, args.n - 1)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
    ambient = AmbientSpace(args.p, args.n)
    k = args.n - args.m
    grassmannian_size(ambient, k, budget=args.subspace_budget)
    rows = []
    failed = False
    for trial in range(args.trials):
        size = 1 + (args.seed + trial * 13) % ambient.point_count
        # the sampler checks p^n against the budget before any key is drawn
        E = random_point_set(ambient, size, seed=args.seed + trial, budget=args.point_budget)
        if trial == 0:  # the Grassmannian is enumerated once p^n has passed its budget
            stack = grassmannian(ambient, k, budget=args.subspace_budget)
            names = [csv_subspace_name(W) for W in stack.members]
        prefix = (args.p, args.n, args.m, trial, E.size)
        table = dft(E, budget=args.point_budget)
        defect = plancherel_defect(E, table)
        ok = defect / (ambient.point_count * max(1, E.size)) <= args.tol
        failed = failed or not ok
        rows.append(
            (*prefix, "plancherel", "", ambient.point_count * E.size, spectral_mass(table), defect, ok)
        )
        res = verify_coset_identities((E,), stack, tol=args.tol, tables=(table,))
        failed = failed or not res.passed.all()
        for ser, spatial, spectral, passed in zip(
            names, res.spatial[0].tolist(), res.spectral[0].tolist(), res.passed[0].tolist()
        ):
            rows.append((*prefix, "coset", ser, spatial, spectral, abs(spatial - spectral), passed))
    _write(acceptance.csv_text(IDENTITY_HEADER, rows), args.out)
    return 1 if failed else 0


def cmd_random_family(args) -> int:
    ambient = AmbientSpace(args.p, args.n)
    cfg = RandomFamilyConfig(ambient, args.m, _exponent(args.alpha), args.seed)
    G = sample_random_family(cfg, budget=args.subspace_budget)
    print(f"grassmannian_size {cfg.grassmannian_size}")
    print(f"delta {cfg.delta.numerator}/{cfg.delta.denominator} ~ {float(cfg.delta):.12g}")
    print(f"family_size {len(G)}")
    if args.out:
        save_family(G, args.out)
        print(f"saved {args.out}")
    return 0


def cmd_examples(args) -> int:
    if args.which == "circle" and args.n != 3:
        raise ValueError("the circle family lives in n = 3")
    check_budget(AmbientSpace(args.p, args.n).point_count, args.point_budget, "p^n for point sets")
    if args.which == "circle":
        G, S = circle_family(args.p), circle_set(args.p)
    else:
        G, S = moment_family(args.p, args.n), moment_curve_set(args.p, args.n)
        # counted first: its |G(n, n-1)| budget check comes before any line is printed
        hyper = hyperplane_intersection_max(S, budget=args.subspace_budget)
    print(f"set_size {S.size}")
    print(f"family_size {len(G)}")
    print(f"spread_perp {spread_perp(G, budget=args.point_budget).max_count}")
    if args.which == "moment":
        print(f"hyperplane_max {hyper}")
    sets = acceptance.standard_sets(S.ambient, base_seed=args.p, budget=args.point_budget)
    census = acceptance.battery_census(sets, G, 16)
    keys = [(set_id, N) for set_id, _ in sets for N in census.thresholds]
    columns = (census.count, census.ratio, census.within)
    for (set_id, N), count, ratio, ok in zip(keys, *(c.ravel().tolist() for c in columns)):
        print(f"ratio {set_id} N={N} count={count} ratio={ratio:.12g} {'ok' if ok else 'FAIL'}")
    return 0 if census.within.all() else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _json_int(value) -> int:
    """int(value) of a JSON integer or integer string; int() would truncate a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"must be an integer, got {json.dumps(value)}")
    return int(value)


def _config_strings(value) -> list:
    """A JSON list of strings; list() would split a string into characters or read a dict's keys."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"must be a list of strings, got {json.dumps(value)}")
    return value


def _load_sweep_config(path):
    """The sweep's settings, with its thresholds reduced to (N, shown) cutoffs."""
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # text that is not UTF-8, or an integer past the digit limit of int()
        raise ValueError(f"{path}: {exc}") from None
    try:
        p, n, m = (with_context(f"{path}: {key}", _json_int, raw[key]) for key in ("p", "n", "m"))
        ambient = AmbientSpace(p, n)
        families, sets = (with_context(f"{path}: {key}", _config_strings, raw[key]) for key in ("families", "sets"))
        thresholds = raw["thresholds"]
        kind = thresholds["kind"]
        values = thresholds["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing or malformed key: {exc}") from None
    check_range("codimension m", m, 1, n - 1)  # an eps cutoff raises p to m before any family checks it
    if not isinstance(values, list):
        raise ValueError(f"{path}: thresholds.values: must be a list, got {json.dumps(values)}")
    if not isinstance(raw.get("output", ""), str):
        raise ValueError(f"{path}: output: must be a string, got {json.dumps(raw['output'])}")
    for where, given, allowed in (("", raw, CONFIG_KEYS), ("thresholds.", thresholds, THRESHOLD_KEYS)):
        for key in given:
            if key not in allowed:
                raise ValueError(f"{path}: unknown key {where}{key}; allowed: {' '.join(allowed)}")
    if kind not in ("N", "t", "eps"):
        raise ValueError(f"{path}: thresholds.kind: must be one of N, t, eps, got {json.dumps(kind)}")
    C = with_context(f"{path}: C", parse_fraction, raw.get("C", 16))
    # reduced here, so a bad value fails even if every family is skipped
    key = f"{path}: thresholds.values"
    cutoffs = [with_context(key, _threshold_to_N, ambient, m, kind, value) for value in values]
    return ambient, m, families, sets, kind, cutoffs, C, raw.get("output")


def _threshold_to_N(ambient, m, kind, value):
    """Reduce a threshold spec to the exact integer cutoff on image sizes.

    Image sizes are integers, so size <= p^t iff size <= floor(p^t) and
    size <= eps p^m iff size <= floor(eps p^m); the reduction is exact.
    """
    if kind == "N":
        n_val = _json_int(value)
        if n_val < 0:
            raise ValueError("threshold N must be nonnegative")
        return n_val, str(n_val)
    if kind == "t":
        frac = _exponent(value)
        if frac <= 0:
            raise ValueError("threshold exponent t must be positive")
        if ambient.p.bit_length() * frac > MAX_POWER_BITS:  # p^t < 2^(bits t), checked before it is built
            limit = f"{ambient.p}^t may have more than {MAX_DECIMAL_EXPONENT} digits"
            raise ValueError(f"threshold exponent t = {value} is too large: {limit}")
        return floor_pow(ambient.p, frac), f"{frac.numerator}/{frac.denominator}"
    frac = parse_fraction(value)  # a scale, not an exponent: any denominator
    if frac < 0:
        raise ValueError("threshold scale eps must be nonnegative")
    num_bits, den_bits = frac.numerator.bit_length(), frac.denominator.bit_length()
    # eps is printed as num/den, and eps p^m < 2^(num_bits + bits(p) m - den_bits + 1):
    # all three are bounded from bit lengths, before any product is taken
    if max(num_bits, den_bits, num_bits + ambient.p.bit_length() * m - den_bits + 1) > MAX_POWER_BITS:
        limit = f"its numerator, denominator or floor(eps {ambient.p}^{m}) may have more than"
        raise ValueError(f"threshold scale eps = {value} is out of range: {limit} {MAX_DECIMAL_EXPONENT} digits")
    return floor_mul_pow(frac, ambient.p, m), f"{frac.numerator}/{frac.denominator}"


def cmd_sweep(args) -> int:
    ambient, m, family_specs, set_specs, kind, cutoffs, C, cfg_out = _load_sweep_config(args.config)

    families = []  # (spec, family or None when over the subspace budget, seed field)
    for spec in family_specs:
        try:
            families.append((spec, *parse_family_spec(ambient, m, spec, budget=args.subspace_budget)))
        except BudgetError:
            families.append((spec, None, ""))

    # Each set checks p^n against the point budget before anything is
    # counted, and the spreads below check the same p^n against the same
    # budget; a sweep without sets writes no row.  So only the subspace
    # budget skips a family.
    sets = [(spec, parse_set_spec(ambient, spec, point_budget=args.point_budget)) for spec in set_specs]
    for _, E in sets:
        if E.size == 0:
            raise ValueError("sweep sets must be nonempty (the bound uses 1/|E|)")
    points = [E for _, E in sets]

    # The families that are not skipped share one stack of their distinct members, each
    # family an index array into it: one family_census and one stacked_spread per variant
    # read it, so each member is counted once and its annihilators are built once.
    kept = [G for _, G, _ in families if G is not None]
    results = iter(())  # per kept family: its (S, T) census, spread_containing, spread_perp
    if sets and kept:  # a battery needs at least one set
        union, at, edges = stack_union(kept)
        spreads = [stacked_spread(union, variant, at, edges, args.point_budget)[0].tolist()
                   for variant in ("contains", "perp")]  # fmt: skip
        census = family_census((points,), union, at, edges, np.zeros(len(kept), dtype=np.int64),
                               [N for N, _ in cutoffs], C, args.point_budget)  # fmt: skip
        results = ((census[c], sc, sp) for c, (sc, sp) in enumerate(zip(*spreads)))

    # the (set_id, set_size, threshold_kind, threshold) of each row of a family
    keys = [(set_id, E.size, kind, shown) for set_id, E in sets for _, shown in cutoffs]
    rows = []
    any_failed = any_skipped = False
    for family_id, G, seed_field in families:
        prefix = (ambient.p, ambient.n, m, family_id)
        if G is None:
            rows.extend((*prefix, "", *key, *("",) * 6, seed_field, "skipped") for key in keys)
            any_skipped = any_skipped or bool(keys)
            continue
        if not sets:
            continue
        cell, sc, sp = next(results)  # this family's cell of the census
        any_failed = any_failed or not cell.within.all()
        columns = (cell.count, cell.bound_num, cell.bound_den, cell.ratio, cell.within)
        rows.extend(
            (*prefix, len(G), *key, count, num, den, ratio, sc, sp, seed_field, within)
            for key, count, num, den, ratio, within in zip(keys, *(c.ravel().tolist() for c in columns))
        )

    _write(acceptance.csv_text(SWEEP_HEADER, rows), args.out or cfg_out)
    return 1 if any_failed else 3 if any_skipped else 0


def cmd_accept(args) -> int:
    suite = acceptance.run_suite()
    acceptance.write_artifacts(suite, args.out)
    for result in suite.results:
        print(result.line())
    print(f"artifacts written to {args.out}")
    return 0 if suite.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpproj",
        description="Exact projection laboratory over prime fields F_p^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    budgets = {"--point-budget": DEFAULT_POINT_BUDGET, "--subspace-budget": DEFAULT_SUBSPACE_BUDGET}

    def add_budgets(sp, *flags):  # only the budgets the subcommand reads
        for flag in flags:
            sp.add_argument(flag, type=int, default=budgets[flag])

    sp = sub.add_parser("count", help="Gaussian-binomial formula vs enumeration")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    add_budgets(sp, "--subspace-budget")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("project", help="project a set along a subspace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--subspace", required=True, help="basis rows, e.g. '1,0,2;0,1,1'")
    sp.add_argument("--set", required=True, help="random:SIZE:SEED | flat:K:OFF | circle | moment | file:PATH")
    add_budgets(sp, "--point-budget")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("identity-check", help="Parseval and coset-energy identity")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--out", default=None)
    add_budgets(sp, *budgets)
    sp.set_defaults(func=cmd_identity_check)

    sp = sub.add_parser("random-family", help="sample the seeded Bernoulli family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", required=True, help="rational exponent, e.g. 3/2 or 1.5")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)
    add_budgets(sp, "--subspace-budget")
    sp.set_defaults(func=cmd_random_family)

    sp = sub.add_parser("examples", help="the circle and moment-curve families")
    sp.add_argument("which", choices=("circle", "moment"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=3)
    add_budgets(sp, *budgets)
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("sweep", help="exceptional-count sweep from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="CSV path (overrides config output)")
    sp.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    add_budgets(sp, *budgets)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("accept", help="run the acceptance suite, write artifacts")
    sp.add_argument("--out", default="acceptance_artifacts")
    sp.set_defaults(func=cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
