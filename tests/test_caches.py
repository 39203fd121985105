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


def test_line_map_is_built_once_per_ambient_in_a_sweep(tmp_path):
    # both spread variants read one cached map
    import json

    from fpproj import cli
    from fpproj.field import AmbientSpace
    from fpproj.subspaces import _line_minima

    assert "fpproj.subspaces._line_minima" in package_caches()
    assert _line_minima.cache_parameters()["maxsize"] is not None
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "p": 3, "n": 4, "m": 2, "families": ["full", "random:3:1"],
        "sets": ["random:20:1", "moment"], "thresholds": {"kind": "N", "values": [1, 4]},
    }))  # fmt: skip
    _line_minima.cache_clear()
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    info = _line_minima.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
    assert not _line_minima(AmbientSpace(3, 4)).flags.writeable
