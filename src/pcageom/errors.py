"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["PcageomError", "DataError", "ConvergenceError"]


class PcageomError(Exception):
    """Base class for errors raised by this package."""


class DataError(PcageomError):
    """Invalid or unusable input data (bad file, malformed matrix, bad cell)."""


class ConvergenceError(PcageomError):
    """A numerical result missed its convergence target."""
