"""The package's public names."""

import importlib
import pkgutil

import pcageom


def test_every_exported_name_resolves():
    modules = [pcageom] + [
        importlib.import_module(f"pcageom.{info.name}") for info in pkgutil.iter_modules(pcageom.__path__)
    ]
    assert len(modules) > 10
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
