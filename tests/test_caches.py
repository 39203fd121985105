"""Every lru_cache in the package is bounded."""

import importlib
import pkgutil

import fpproj
from fpproj.acceptance import package_caches


def test_every_lru_cache_is_bounded():
    for info in pkgutil.iter_modules(fpproj.__path__):
        if info.name != "__main__":
            importlib.import_module(f"fpproj.{info.name}")
    found = {name: fn.cache_parameters()["maxsize"] for name, fn in package_caches().items()}
    assert "fpproj.subspaces.perp" in found  # the walk reaches the caches
    assert [name for name, maxsize in found.items() if maxsize is None] == []


def test_line_map_is_built_once_per_ambient_in_a_sweep(tmp_path, monkeypatch):
    # the map is not cached: the sweep builds it once, for its 'contains'
    # spreads, and annihilator span points are line minima already
    import json

    import numpy as np

    from fpproj import cli, families
    from fpproj.field import AmbientSpace
    from fpproj.subspaces import grassmannian

    assert not any(name.endswith("_line_minima") for name in package_caches())
    builds = []
    real = families._line_minima

    def counted(ambient):
        builds.append(ambient)
        return real(ambient)

    monkeypatch.setattr(families, "_line_minima", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "p": 3, "n": 4, "m": 2, "families": ["full", "random:3:1"],
        "sets": ["random:20:1", "moment"], "thresholds": {"kind": "N", "values": [1, 4]},
    }))  # fmt: skip
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert builds == [AmbientSpace(3, 4)]
    builds.clear()
    stack = grassmannian(AmbientSpace(3, 4), 2)
    members = np.arange(len(stack) - 1)  # not all of G(4, 2), so the family is counted
    counts, _ = families.stacked_spread(stack, "perp", members, [0, len(members)])
    assert builds == [] and counts[0] > 0
    families.stacked_spread(stack, "contains", members, [0, len(members)])
    assert builds == [AmbientSpace(3, 4)]


def test_one_acceptance_pass_builds_each_grassmannian_once(monkeypatch):
    # criteria 1-3 walk one grid of 42 cells in one order: a pass asks for 124
    # Grassmannians over 48 (ambient, k) keys, and a 32-entry cache missed 87 times
    from fpproj import acceptance, subspaces

    cached = subspaces._grassmannian
    asked = []
    acceptance.clear_caches()
    monkeypatch.setattr(subspaces, "_grassmannian", lambda ambient, k: asked.append((ambient, k)) or cached(ambient, k))
    for criterion in acceptance.CRITERIA:
        criterion()
    assert (len(asked), len(set(asked))) == (124, 48)
    assert cached.cache_info().misses == 48
    acceptance.clear_caches()
    cached.cache_clear()
