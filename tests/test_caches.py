"""Every lru_cache in the package is bounded."""

import importlib
import inspect
import pkgutil

import fpproj


def _cached_functions():
    for info in pkgutil.iter_modules(fpproj.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fpproj.{info.name}")
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_parameters"):
                    name = f"{value.__module__}.{value.__qualname__}"
                    yield name, value.cache_parameters()["maxsize"]


def test_every_lru_cache_is_bounded():
    found = dict(_cached_functions())
    assert "fpproj.subspaces.perp" in found  # the walk reaches the caches
    assert [name for name, maxsize in found.items() if maxsize is None] == []
