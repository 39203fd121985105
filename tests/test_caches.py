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
