"""Self-test of the benchmark harness: tracer coverage and the output gate.

    python3 perfbench/selftest.py

1. Tracer: after install() no fpproj module still binds an original
   function, CRITERIA holds only wrappers, a tiny in-process sweep fires
   every sweep span, and projection.stats.pairs equals sum |G| * |sets|
   for sizes known from the config.  A traced ``accept`` operation fires
   the remaining spans, so together every span in spans.SPANS fires.
2. Gate: real outputs at the reference seed pass, and a corrupted copy,
   a row with pass = 0 and a nonzero exit code each count as a failure.
3. BENCHMARK.json names exactly the metrics run.py reports.

Takes about 20 s; it is not part of the tier-1 pytest suite.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import SPANS, Tracer, layer_metrics, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_SPANS = {
    "cli.main", "cli.parse", "field.rref", "field.nullspace", "subspaces.enumerate",
    "subspaces.perp", "subspaces.span_codes", "subspaces.reduce_points", "pointsets.build",
    "pointsets.coordinates", "projection.stats", "projection.fiber_counts",
    "projection.report", "families.spread", "families.sample", "exact",
}  # fmt: skip


def require(condition, message):
    """Like assert, but kept under python -O."""
    if not condition:
        raise AssertionError(message)


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def check_tracer(workdir):
    import fpproj.cli

    tracer = Tracer()
    tracer.install()
    stale = tracer.unwrapped_aliases()
    require(not stale, f"aliases still bound to unwrapped originals: {stale}")

    p, n, m = 5, 3, 2
    config = {
        "p": p, "n": n, "m": m,
        "families": ["full", "circle", "moment", "random:3/2:7"],
        "sets": ["random:10:1", "flat:1:0,0,1", "moment", "circle"],
        "thresholds": {"kind": "t", "values": ["1/2", "1"]},
    }  # fmt: skip
    path = os.path.join(workdir, "tiny.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code = fpproj.cli.main(["sweep", "--config", path, "--out", os.path.join(workdir, "tiny.csv")])
    require(code == 0, f"tiny sweep exited {code}")
    summary = tracer.summary()
    missing = SWEEP_SPANS - set(summary["spans"])
    require(not missing, f"sweep spans that never fired: {sorted(missing)}")
    # full: |G(3,1)|; circle and moment: p - 1 lines for p = 1 mod 4;
    # the random family's size is what the sampler returned.
    sizes = [gaussian_binomial(n, n - m, p), p - 1, p - 1]
    sizes.append(summary["counters"]["families.sample.kept"])
    pairs = layer_metrics(summary)["projection.stats.pairs"]
    require(pairs == sum(sizes) * len(config["sets"]), (pairs, sizes))
    print(f"tracer: every alias rebound; tiny sweep fired {len(summary['spans'])} spans, pairs {pairs}")
    return set(summary["spans"])


def check_gate_and_accept(workdir, sweep_spans):
    deadline = time.monotonic() + run.RUN_DEADLINE_S

    accept = run.Runner(WORKLOADS["accept"], 0, os.path.join(workdir, "accept"), deadline)
    outdir = os.path.join(workdir, "accept", "out")
    os.makedirs(outdir)
    op = run.spawn(os.path.join(workdir, "accept"), accept.workload.argv(None, outdir), 1, deadline)
    require(accept.check(op, outdir) is None, "accept outputs differ from reference.json")
    fired = sweep_spans | set(op.report["trace"]["spans"])
    missing = {name for name, _, _ in SPANS} - fired
    require(not missing, f"spans that never fired: {sorted(missing)}")
    print(f"tracer: sweep + accept fired all {len(SPANS)} spans")

    bad = os.path.join(workdir, "accept-bad")
    shutil.copytree(outdir, bad)
    _flip_digit(os.path.join(bad, "artifacts", "c05_coset_identity.csv"))
    require(accept.check(op, bad) is not None, "corrupted artifact passed the gate")

    sweep = run.Runner(WORKLOADS["sweep-dense"], 0, os.path.join(workdir, "dense"), deadline)
    outdir = os.path.join(workdir, "dense", "out")
    os.makedirs(outdir)
    op = run.spawn(os.path.join(workdir, "dense"), sweep.workload.argv(sweep.prepared, outdir), 0, deadline)
    require(sweep.check(op, outdir) is None, "sweep-dense output differs from reference.json")
    for name, corrupt in (("digit", _flip_digit), ("pass", _fail_last_row)):
        bad = os.path.join(workdir, f"dense-{name}")
        shutil.copytree(outdir, bad)
        corrupt(os.path.join(bad, "report.csv"))
        problem = sweep.check(op, bad)
        require(problem is not None, f"sweep with a corrupted {name} passed the gate")
    op.exit_code = 1
    require(sweep.check(op, outdir) is not None, "a nonzero exit code passed the gate")
    print("gate: reference outputs pass; corrupted copies, pass = 0 and exit 1 fail")


def _flip_digit(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _fail_last_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1][: lines[-1].rindex(",")] + ",0"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    require(per_layer == metric_names() + [("trace.overhead_s", "s")], "per_layer out of date")
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    require(end_to_end == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"], end_to_end)
    names = [w["name"] for w in bench["workloads"]]
    require(set(names) <= set(WORKLOADS), names)
    print(f"BENCHMARK.json: {len(per_layer)} per-layer and {len(end_to_end)} end-to-end metrics match")


def main():
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=parent)
    try:
        check_benchmark_json()
        sweep_spans = check_tracer(workdir)
        check_gate_and_accept(workdir, sweep_spans)
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # a benchmark run is using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
