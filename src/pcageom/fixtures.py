"""Access to the data files bundled with the package."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

__all__ = ["fixture_path"]


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file.

    The package installs as a plain directory (no zip), so the resource
    can be handed out as a real path.
    """
    root = resources.files("pcageom").joinpath("fixtures")
    path = Path(str(root.joinpath(name)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path
