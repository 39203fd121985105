"""fpproj benchmark: one workload, closed loop, one client, fresh process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``fpproj.cli.main(argv)`` call in a new Python
process (perfbench/child.py), because a CLI user pays interpreter
start-up, Grassmannian enumeration and cold caches on every call.  The
next operation starts when the previous one has exited.  An operation
starts while at least half of it, at the mean pace so far, falls inside
the window of S seconds, so a run lasts S seconds give or take half an
operation.

--trace 0 reports the end-to-end metrics.  wall_s and cpu_s are means
over the run's operations and setup_s is the median of import-only
probes spread through the whole window.  All three are adjusted to a
fixed host speed, which a reference chunk of pure Python samples while
the run goes on (class HostSpeed; README.md, "Noise", says why).  The
raw values are printed too.  --trace 1 runs one untraced operation, then traced ones,
and reports the per-layer metrics (medians over traced operations) and
trace.overhead_s.  The last line of stdout is the JSON result; the
lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import layer_metrics, layer_shares, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The default seed: outputs at this seed must match reference.json.
REFERENCE_SEED = 0
SETUP_PROBES_PER_OP = 3  # import-only processes before each operation
REFERENCE_SIZE = 1 << 20  # elements the host-speed reference chunk reads from
REFERENCE_READS = 50_000  # random reads per chunk
REFERENCE_NOMINAL_S = 0.02  # a chunk's CPU seconds at the nominal host speed
REFERENCE_PERIOD_S = 0.25  # pause between chunks: about 10 % of one core
RUN_DEADLINE_S = 150  # no run may outlive this, whatever --seconds says


def source_identity():
    """git sha of the checkout if it is a repository, and a digest of src/."""
    sha = None
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head_path):
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", head[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = head
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fpproj")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def environment():
    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Op:
    """One finished operation: timings from outside, plus the child's report."""

    def __init__(self, start, wall_s, cpu_s, rss_mb, setup_s, exit_code, stdout, report):
        self.start = start  # time.monotonic() at spawn
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.setup_s = setup_s
        self.exit_code = exit_code
        self.stdout = stdout
        self.report = report
        self.traced = False
        self.failed = False
        self.digest = None


def spawn(opdir, cli_argv, trace, deadline):
    """Run child.py in a fresh process and measure it with wait4."""
    os.makedirs(opdir, exist_ok=True)
    report_path = os.path.join(opdir, "child.json")
    stdout_path = os.path.join(opdir, "stdout.txt")
    argv = [sys.executable, os.path.join(HERE, "child.py"), report_path, str(trace), "--", *cli_argv]
    with open(stdout_path, "wb") as out, open(os.path.join(opdir, "stderr.txt"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=opdir)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(1.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    setup = report["imported_at"] - start if "imported_at" in report else None
    return Op(
        start,
        end - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        setup,
        proc.returncode,
        stdout,
        report,
    )


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


class Runner:
    """Runs and checks operations of one workload inside one work directory."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        os.makedirs(workdir, exist_ok=True)
        self.prepared = workload.prepare(workdir, seed)
        self.expected_digest = None
        if workload.seed_independent or seed == REFERENCE_SEED:
            self.expected_digest = load_reference(workload.name)
        self.sizes = None
        self.ops = []
        self.probes = []  # import-only operations
        self.failures = []

    def run_op(self, trace):
        index = len(self.ops)
        opdir = os.path.join(self.workdir, f"op{index}")
        outdir = os.path.join(opdir, "out")
        os.makedirs(outdir)
        op = spawn(opdir, self.workload.argv(self.prepared, outdir), trace, self.deadline)
        op.traced = bool(trace)
        problem = self.check(op, outdir)
        op.failed = problem is not None
        if problem:
            self.failures.append(f"op {index}: {problem}")
        shutil.rmtree(opdir)
        self.ops.append(op)
        return op

    def check(self, op, outdir):
        if op.exit_code != 0:
            return f"exit code {op.exit_code}"
        if op.setup_s is None:
            return "no child report"
        problem, digest, sizes = self.workload.check(outdir, op.stdout)
        if problem:
            return problem
        if self.expected_digest is None:
            self.expected_digest = digest  # first operation of a non-reference seed
        if digest != self.expected_digest:
            return f"output sha256 {digest[:16]}... differs from {self.expected_digest[:16]}..."
        op.digest = digest
        if self.sizes is None:
            self.sizes = sizes
        return None

    def loop(self, seconds, trace, probes=0):
        """Closed loop until the next operation would end mostly past the window.

        Each operation is preceded by `probes` set-up probes, so they
        sample the host's speed across the whole window.
        """
        start = time.monotonic()
        done = 0
        pace = 0.0  # mean seconds per operation, probes included
        while not done or time.monotonic() - start + pace / 2 <= seconds:
            if time.monotonic() + 2 * pace > self.deadline:
                break
            for _ in range(probes):
                self.probes.append(probe_setup(self.workdir, self.deadline))
            self.run_op(trace)
            done += 1
            pace = (time.monotonic() - start) / done


def probe_setup(workdir, deadline):
    """One import-only process; its setup_s is the sample."""
    probedir = os.path.join(workdir, "probe")
    op = spawn(probedir, [], 0, deadline)
    shutil.rmtree(probedir)
    if op.exit_code != 0 or op.setup_s is None:
        raise RuntimeError(f"set-up probe failed with exit code {op.exit_code}")
    return op


class HostSpeed:
    """Samples the host's speed while a run goes on.

    The host this benchmark was written on changes speed by 40 % or more
    for minutes at a time, on both vCPUs at once (README.md, "Noise").
    A thread in this process runs a fixed chunk of pure Python every
    REFERENCE_PERIOD_S and records its CPU time, which preemption does
    not inflate.  The chunk reads a list in random order, so that, like
    fpproj's dicts, sets and arrays, it feels contention for the caches
    and memory as well as the clock.  factor(start, end) is the mean of
    nominal / measured chunk time over an interval: a time measured in
    that interval, multiplied by it, is the time at the nominal speed.
    """

    def __init__(self):
        rng = random.Random(0)
        self._values = list(range(REFERENCE_SIZE))
        self._order = rng.sample(range(REFERENCE_SIZE), REFERENCE_READS)
        self.samples = []  # (time.monotonic() at the chunk's middle, chunk CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _chunk(self):
        values = self._values
        return sum(values[i] for i in self._order)

    def _sample(self):
        while not self._stop.is_set():
            began, cpu = time.monotonic(), time.thread_time()
            self._chunk()
            cpu = time.thread_time() - cpu
            self.samples.append(((began + time.monotonic()) / 2, cpu))
            self._stop.wait(REFERENCE_PERIOD_S)

    def factor(self, start, end):
        margin = REFERENCE_PERIOD_S  # a short interval still gets a sample or two
        chunks = [cpu for t, cpu in self.samples if start - margin <= t <= end + margin]
        if not chunks:
            raise RuntimeError("no host-speed sample near an operation")
        return statistics.fmean(REFERENCE_NOMINAL_S / cpu for cpu in chunks)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(runner, host):
    """Metrics adjusted to the nominal host speed, and the raw ones."""
    ops = runner.ops
    setups = runner.probes + [op for op in ops if op.setup_s is not None]
    walls = [(op.wall_s, host.factor(op.start, op.start + op.wall_s)) for op in ops]
    cpus = [(op.cpu_s, f) for op, (_, f) in zip(ops, walls)]
    starts = [(op.setup_s, host.factor(op.start, op.start + op.setup_s)) for op in setups]
    rss = statistics.median(op.rss_mb for op in ops)
    adjusted = {
        "wall_s": (statistics.fmean(v * f for v, f in walls), "s"),
        "cpu_s": (statistics.fmean(v * f for v, f in cpus), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (statistics.median(v * f for v, f in starts), "s"),
    }
    raw = {
        "wall_s": statistics.fmean(v for v, _ in walls),
        "cpu_s": statistics.fmean(v for v, _ in cpus),
        "setup_s": statistics.median(v for v, _ in starts),
        "host_speed_factor": statistics.fmean(f for _, f in walls),
    }
    return adjusted, raw


def traced(runner):
    plain = [op.wall_s for op in runner.ops if not op.traced]
    with_trace = [op for op in runner.ops if op.traced and "trace" in op.report]
    per_op = [layer_metrics(op.report["trace"]) for op in with_trace]
    units = dict(metric_names())
    metrics = {}
    for name in per_op[0] if per_op else ():
        metrics[name] = (statistics.median(m[name] for m in per_op), units[name])
    overhead = statistics.median(op.wall_s for op in with_trace) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    shares = [layer_shares(op.report["trace"]) for op in with_trace]
    median_shares = {k: round(statistics.median(s[k] for s in shares), 4) for k in shares[0]}
    return metrics, median_shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "fpproj", "__init__.py")):
        print(f"error: no fpproj source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        runner = Runner(workload, args.seed, workdir, deadline)
        host = None
        if args.trace:
            runner.run_op(trace=0)  # the untraced reference for trace.overhead_s
            runner.loop(args.seconds - runner.ops[0].wall_s, trace=1)
        else:
            probe_setup(workdir, deadline)  # warms the file and byte-code caches; not kept
            with HostSpeed() as host:
                runner.loop(args.seconds, trace=0, probes=SETUP_PROBES_PER_OP)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it

    print("inputs " + json.dumps(runner.sizes, sort_keys=True))
    for i, op in enumerate(runner.ops):
        print(
            f"op {i} {'traced' if op.traced else 'plain'} wall_s={fmt(op.wall_s)} "
            f"cpu_s={fmt(op.cpu_s)} peak_rss_mb={fmt(op.rss_mb)} setup_s={fmt(op.setup_s)} "
            + (f"host_speed_factor={fmt(host.factor(op.start, op.start + op.wall_s))} " if host else "")
            + ("FAILED" if op.failed else f"ok sha256={op.digest}")
        )
    for failure in runner.failures:
        print("failure " + failure)
    attempted, failed = len(runner.ops), len(runner.failures)
    if args.trace:
        metrics, shares = traced(runner)
        print("shares " + json.dumps(shares))  # self time per layer / cli.main time
    else:
        metrics, raw = end_to_end(runner, host)
        print("raw " + " ".join(f"{name}={fmt(value)}" for name, value in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {fmt(value)} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
