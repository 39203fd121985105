"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py                      # the gated workloads, seed 0
    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace --out perfbench/baseline.json

Each run is ``perfbench/run.py`` in its own process, called exactly as
BENCHMARK.json's command.  For every workload and end-to-end metric the table
gives the median and quartiles over runs, the spread (q3 - q1) / median
against a third of the metric's bound in BENCHMARK.json, and
fail_ratio = failed / attempted over all runs, then the spread of the raw
times, before run.py's host-speed adjustment.  --trace adds one traced
run per workload (on the first seed) with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("env", "inputs", "shares"):
            info[key] = json.loads(rest)
        elif key == "raw":  # the end-to-end times before the host-speed adjustment
            info[key] = {k: float(v) for k, v in (pair.split("=") for pair in rest.split())}
    return json.loads(lines[-1]), info


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results, raws, first_info = [], [], None
        for seed in args.seeds:
            result, info = run(workload, seed, args.seconds, trace=False)
            results.append(result)
            raws.append(info.pop("raw"))
            first_info = first_info or info
            print(f"# {workload} seed {seed}: " + json.dumps(result["metrics"]), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {**first_info, "seconds": args.seconds, "seeds": args.seeds}
        entry.update(runs=len(results), attempted=attempted, failed=failed)
        entry["fail_ratio"] = failed / attempted
        entry["metrics"] = {}
        print(f"{workload}: {len(results)} runs, {attempted} operations")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }  # fmt: skip
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(
                f"  {name:12s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.2%} (bound/3 {bounds[name] / 3:.2%}, {verdict})"
            )
        entry["raw"] = {}
        for name in raws[0]:
            q1, median, q3 = quartiles([r[name] for r in raws])
            entry["raw"][name] = {"median": median, "q1": q1, "q3": q3, "values": [r[name] for r in raws]}
            print(f"  raw {name:18s} median {median:.6g}  spread {(q3 - q1) / median:.2%}")
        print(f"  {'fail_ratio':12s} {entry['fail_ratio']:.6g} ratio ({failed}/{attempted})")
        if args.trace:
            result, info = run(workload, args.seeds[0], args.seconds, trace=True)
            entry["traced"] = result
            entry["traced_layer_shares"] = info.get("shares")
            print(f"  traced run (seed {args.seeds[0]}), layer shares {info.get('shares')}:")
            for name, metric in result["metrics"].items():
                print(f"    {name} = {metric['value']:.6g} {metric['unit']}")
        summary[workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
