"""The package's public names."""

import importlib
import pkgutil
import re
from pathlib import Path

import pcageom

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """The README's Python examples run in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
