"""Span tracer for fpproj: wraps each layer's public functions from outside.

A span is one call of a wrapped function.  Spans are aggregated in
memory per name (calls, inclusive time, self time, counters) and read
out once when the operation ends; keeping every span would cost more
memory than the workloads themselves (rref alone runs about 10^5 times).
Self time is a span's duration minus the time covered by its child
spans; spans nest strictly because fpproj is single-threaded under
``sweep --jobs 1``.

``install()`` must run after every fpproj module is imported: the
package binds most functions with ``from ... import``, so the tracer
replaces every module attribute that *is* an original function, and
rebuilds ``acceptance.CRITERIA``, which holds the criteria by value.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute names).  A span with several attributes
# aggregates all of them under one name.
SPANS = (
    ("field.rref", "fpproj.field", ("rref",)),
    ("field.nullspace", "fpproj.field", ("nullspace",)),
    ("subspaces.enumerate", "fpproj.subspaces", ("enumerate_subspaces",)),
    ("subspaces.perp", "fpproj.subspaces", ("perp",)),
    ("subspaces.span_codes", "fpproj.subspaces", ("span_codes",)),
    ("subspaces.reduce_points", "fpproj.subspaces", ("reduce_points",)),
    (
        "pointsets.build",
        "fpproj.pointsets",
        ("random_point_set", "affine_flat_set", "circle_set", "moment_curve_set"),
    ),
    ("pointsets.coordinates", "fpproj.pointsets", ("PointSet.coordinates",)),
    ("projection.stats", "fpproj.projection", ("family_projection_stats",)),
    ("projection.fiber_counts", "fpproj.projection", ("fiber_counts",)),
    ("projection.census", "fpproj.projection", ("exceptional_bound_check",)),
    ("projection.report", "fpproj.projection", ("exceptional_report_from_stats",)),
    ("fourier.dft", "fpproj.fourier", ("dft",)),
    ("fourier.identity", "fpproj.fourier", ("verify_coset_identity",)),
    ("fourier.plancherel", "fpproj.fourier", ("plancherel_defect",)),
    ("families.spread", "fpproj.families", ("spread_profile",)),
    ("families.sample", "fpproj.families", ("sample_random_family",)),
    ("families.hyperplane_max", "fpproj.families", ("hyperplane_intersection_max",)),
    ("families.concentration", "fpproj.families", ("size_concentration_report",)),
    ("exact", "fpproj.exact", ("le_pow", "le_affine_pow", "floor_mul_pow", "floor_pow")),
    *(
        (f"acceptance.c{i:02d}", "fpproj.acceptance", (f"criterion{i}",))
        for i in range(1, 12)
    ),
    ("acceptance.standard_sets", "fpproj.acceptance", ("standard_sets",)),
    ("acceptance.write", "fpproj.acceptance", ("write_artifacts",)),
    ("cli.main", "fpproj.cli", ("main",)),
    ("cli.parse", "fpproj.cli", ("parse_family_spec", "parse_set_spec")),
)

# Work counters recorded at the span boundary: span name -> {counter: fn(args, result)}.
COUNTERS = {
    "subspaces.enumerate": {"members": lambda a, r: len(r)},
    "projection.stats": {"pairs": lambda a, r: len(r[0])},
    "fourier.dft": {"points": lambda a, r: a[0].ambient.point_count},
    "families.spread": {"members": lambda a, r: len(a[0])},
    "families.sample": {
        "kept": lambda a, r: len(r),
        "enumerated": lambda a, r: a[0].grassmannian_size,
    },
}

# Spans reported by inclusive time alone (metric "<span>.s"); the rest
# report "<span>.calls" and "<span>.self_s".
INCLUSIVE = {f"acceptance.c{i:02d}" for i in range(1, 12)} | {
    "acceptance.write",
    "cli.main",
    "cli.parse",
}


def _ratio(num, den):
    return num / den if den else 0.0


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    empty = {"spans": {}, "counters": {}, "perp_cache": {"hits": 0, "misses": 0}}
    return [(name, _unit(name)) for name in layer_metrics(empty)]


def _unit(name):
    if ".us_per_" in name:
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self):
        self._stats = {}  # span name -> [calls, inclusive s, self s]
        self.counters = {}
        self._stack = []  # [start, child time] per open span
        self._originals = {}  # original object -> wrapper
        self._perp_original = None

    def wrap(self, name, fn):
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        counters = [(f"{name}.{c}", measure) for c, measure in COUNTERS.get(name, {}).items()]
        totals = self.counters
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
            for key, measure in counters:
                totals[key] = totals.get(key, 0) + measure(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every span target and rebind every alias of it in fpproj."""
        for name, module_name, attrs in SPANS:
            module = sys.modules[module_name]
            for attr in attrs:
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, leaf)
                wrapper = self.wrap(name, original)
                self._originals[original] = wrapper
                setattr(owner, leaf, wrapper)
                if name == "subspaces.perp":
                    self._perp_original = original
        for module, attr, wrapper in self._aliases():
            setattr(module, attr, wrapper)
        acceptance = sys.modules["fpproj.acceptance"]
        acceptance.CRITERIA = tuple(self._lookup(fn) or fn for fn in acceptance.CRITERIA)

    def _lookup(self, value):
        try:
            return self._originals.get(value)
        except TypeError:  # unhashable module attribute
            return None

    def _aliases(self):
        """(module, attribute, wrapper) for each fpproj attribute bound to an original."""
        return [
            (module, attr, wrapper)
            for name, module in list(sys.modules.items())
            if name == "fpproj" or name.startswith("fpproj.")
            for attr, value in list(vars(module).items())
            if (wrapper := self._lookup(value)) is not None
        ]

    def unwrapped_aliases(self):
        """(module, attribute) pairs in fpproj still bound to an original."""
        out = [(module.__name__, attr) for module, attr, _ in self._aliases()]
        for fn in sys.modules["fpproj.acceptance"].CRITERIA:
            if self._lookup(fn) is not None:
                out.append(("fpproj.acceptance", f"CRITERIA[{fn.__name__}]"))
        return out

    def summary(self):
        """Raw aggregates: span -> {calls, incl_s, self_s}, counters, perp cache."""
        spans = {
            name: {"calls": calls, "incl_s": incl, "self_s": self_s}
            for name, (calls, incl, self_s) in self._stats.items()
            if calls
        }
        perp_cache = None
        info = getattr(self._perp_original, "cache_info", None)
        if info is not None:
            hits, misses = info()[:2]
            perp_cache = {"hits": hits, "misses": misses}
        return {"spans": spans, "counters": dict(self.counters), "perp_cache": perp_cache}


def layer_metrics(summary):
    """The per-layer metrics of one traced operation, from Tracer.summary().

    A span that never ran reports 0 calls and 0 s.  hit_ratio is left
    out when perp has no cache_info(), so a removed cache reads as
    absent rather than as a 0 % hit rate.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for name, _, _ in SPANS:
        if name in INCLUSIVE:
            out[f"{name}.s"] = float(get(name, "incl_s"))
            continue
        out[f"{name}.calls"] = get(name, "calls")
        for counter in COUNTERS.get(name, {}):
            if counter != "enumerated":
                out[f"{name}.{counter}"] = counters.get(f"{name}.{counter}", 0)
        out[f"{name}.self_s"] = float(get(name, "self_s"))
    # us_per_* use inclusive time, so they price the whole per-item path
    # whatever its internal split.
    out["subspaces.enumerate.us_per_member"] = 1e6 * _ratio(
        get("subspaces.enumerate", "incl_s"), counters.get("subspaces.enumerate.members", 0)
    )
    cache = summary["perp_cache"]
    if cache is not None:
        out["subspaces.perp.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    out["projection.stats.us_per_pair"] = 1e6 * _ratio(
        get("projection.stats", "incl_s"), counters.get("projection.stats.pairs", 0)
    )
    out["families.spread.us_per_member"] = 1e6 * _ratio(
        get("families.spread", "incl_s"), counters.get("families.spread.members", 0)
    )
    out["families.sample.kept_ratio"] = _ratio(
        counters.get("families.sample.kept", 0), counters.get("families.sample.enumerated", 0)
    )
    return out


def layer_shares(summary):
    """Share of cli.main time spent in each layer's own code (self time)."""
    spans = summary["spans"]
    total = spans.get("cli.main", {}).get("incl_s", 0.0)
    shares = {}
    for name, data in spans.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + data["self_s"]
    return {layer: _ratio(t, total) for layer, t in sorted(shares.items())}
