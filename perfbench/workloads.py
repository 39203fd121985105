"""The four benchmark workloads: inputs from a seed, argv, and output checks.

BENCHMARK.json gates sweep-sparse and accept; sweep-dense and
sample-families run the same way on request (see README.md, "Noise").
A workload seed derives the seeds of every random set, family and
sampler; sizes are fixed, so the work does not depend on the seed.
Every sweep runs with ``--jobs 1``.  On a 2-vCPU Xeon VM (Python 3.11.7)
the sweep-sparse config of seed 0 took 26.0 and 30.6 s with
``--jobs 2`` against 9.7 and 8.8 s with ``--jobs 1``, with identical
output: the unsynchronised per-family stats cache lets threads compute
the same stats twice, and the GIL serialises them anyway.

Each check returns (problem or None, digest, sizes).  The digest is the
sha256 of the operation's output; the caller compares it with the
reference recorded for the default seed, or with the run's first
operation for any other seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random


SWEEP_HEADER = (
    "p,n,m,family_id,family_size,set_id,set_size,threshold_kind,threshold,"
    "exceptional_count,bound_num,bound_den,ratio,spread_containing,spread_perp,seed,pass"
)


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Sweep:
    """``fpproj sweep --jobs 1`` on a config written from the seed."""

    seed_independent = False

    def __init__(self, name, p, n, m, families, sets, kind, values):
        self.name = name
        self.p, self.n, self.m = p, n, m
        self.families = families  # specs; "{}" takes a derived seed
        self.sets = sets
        self.kind = kind
        self.values = values

    def prepare(self, workdir, seed):
        seeds = iter(derive_seeds(self.name, seed, 16))
        config = {
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "families": [spec.format(next(seeds)) for spec in self.families],
            "sets": [spec.format(next(seeds)) for spec in self.sets],
            "thresholds": {"kind": self.kind, "values": self.values},
            "C": 16,
        }
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def argv(self, prepared, outdir):
        return ["sweep", "--config", prepared, "--out", os.path.join(outdir, "report.csv"), "--jobs", "1"]

    def check(self, outdir, stdout):
        path = os.path.join(outdir, "report.csv")
        if not os.path.exists(path):
            return "no report.csv", None, None
        with open(path, "rb") as fh:
            data = fh.read()
        header, *lines = data.decode("utf-8").splitlines()
        expected_rows = len(self.families) * len(self.sets) * len(self.values)
        if header != SWEEP_HEADER or len(lines) != expected_rows:
            return f"{len(lines)} rows under {header!r}", None, None
        # set_id is written unquoted and "flat:K:a,b,c,d" holds commas, so
        # fields are taken from both ends: 5 before set_id, 11 after it.
        rows = [line.split(",") for line in lines]
        failing = [r for r in rows if r[-1] != "1"]
        if failing:
            return f"{len(failing)} rows with pass != 1", None, None
        family_sizes = {r[3]: int(r[4]) for r in rows}
        set_sizes = {",".join(r[5:-11]): int(r[-11]) for r in rows}
        sizes = {
            "p^n": self.p**self.n,
            "|G|": family_sizes,
            "|E|": set_sizes,
            "pairs": sum(family_sizes.values()) * len(set_sizes),
        }
        return None, _sha256(data), sizes


class SampleFamily:
    """``fpproj random-family``: enumerate G(5,2) over F_7, keep ~p^3."""

    name = "sample-families"
    seed_independent = False
    p, n, m, alpha = 7, 5, 3, "3"

    def prepare(self, workdir, seed):
        return derive_seeds(self.name, seed, 1)[0]

    def argv(self, prepared, outdir):
        return [
            "random-family", "--p", str(self.p), "--n", str(self.n), "--m", str(self.m),
            "--alpha", self.alpha, "--seed", str(prepared),
            "--out", os.path.join(outdir, "family.txt"),
        ]  # fmt: skip

    def check(self, outdir, stdout):
        printed = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
        path = os.path.join(outdir, "family.txt")
        if not os.path.exists(path):
            return "no family file", None, None
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != f"p={self.p},n={self.n},m={self.m}":
            return "bad family header", None, None
        members = lines[1:]
        if printed.get("family_size") != str(len(members)):
            return "family_size differs from the file", None, None
        if len(set(members)) != len(members) or members != sorted(members):
            return "family members not sorted and distinct", None, None
        sizes = {
            "p^n": self.p**self.n,
            "|G(n,n-m)|": int(printed.get("grassmannian_size", 0)),
            "kept": len(members),
            "pairs": 0,
        }
        return None, _sha256(data), sizes


class Accept:
    """``fpproj accept``: the 12-criterion suite, inputs fixed by the criteria."""

    name = "accept"
    seed_independent = True

    def prepare(self, workdir, seed):
        return None

    def argv(self, prepared, outdir):
        return ["accept", "--out", os.path.join(outdir, "artifacts")]

    def check(self, outdir, stdout):
        lines = [line for line in stdout.splitlines() if line.startswith("[criterion")]
        if len(lines) != 12 or any(" PASS " not in line for line in lines):
            return "not 12 passing criteria", None, None
        artdir = os.path.join(outdir, "artifacts")
        names = sorted(os.listdir(artdir)) if os.path.isdir(artdir) else []
        if len(names) != 12:
            return f"{len(names)} artifacts, expected 12", None, None
        digest = hashlib.sha256()
        rows = 0
        for name in names:
            with open(os.path.join(artdir, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data + b"\0")
            rows += data.count(b"\n") - 1
        return None, digest.hexdigest(), {"inputs": "fixed by the criteria", "artifact_rows": rows}


WORKLOADS = {
    w.name: w
    for w in (
        # Sparse sets (|E| <= 300 << p^n = 14641) over ~22k members: the
        # per-member projection loop dominates.
        Sweep(
            "sweep-sparse", 11, 4, 2,
            ["full", "random:3:{}", "random:7/2:{}"],
            ["random:300:{}", "random:150:{}", "random:70:{}", "moment", "flat:1:1,2,3,4"],
            "N", [1, 2, 4, 8, 16, 32],
        ),
        # Dense sets (|E| >> p^m = 49) over ~3.3k members: images saturate,
        # so per-pair cost grows with |E| instead of with the member count.
        Sweep(
            "sweep-dense", 7, 4, 2,
            ["full", "random:3:{}", "random:5/2:{}"],
            ["random:2000:{}", "random:1200:{}", "random:600:{}", "flat:2:1,2,3,4"],
            "eps", ["1/10", "1/4", "1/2", "1"],
        ),
        SampleFamily(),
        Accept(),
    )  # fmt: skip
}
