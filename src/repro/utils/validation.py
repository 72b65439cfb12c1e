"""Argument validation helpers with uniform error messages."""

from __future__ import annotations

import numbers

__all__ = [
    "ensure_bool",
    "ensure_number",
    "ensure_positive",
    "ensure_positive_int",
    "ensure_non_negative",
    "ensure_non_negative_int",
    "ensure_in_range",
    "find_duplicates",
]


def ensure_bool(value: bool, name: str) -> bool:
    """Return ``value`` if it is a bool, else raise ``TypeError``.

    A flag must not be merely truthy: ``"false"`` or ``0`` from a stored
    override would otherwise be taken as a switch position.
    """
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {value!r} ({type(value).__name__})")
    return value


def ensure_number(value: float, name: str) -> float:
    """Return ``value`` if it is a real number, else raise ``TypeError``.

    A bool is refused: ``True`` from a stored override would otherwise be
    taken as 1.  So are numeric strings such as ``"0.1"``.  The value is
    returned unconverted; range checks are the caller's.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r} ({type(value).__name__})")
    return value


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if it is strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def ensure_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a strictly positive integer."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r} ({type(value).__name__})")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is >= 0, else raise ``ValueError`` (NaN included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def ensure_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 0 (a bool is refused)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r} ({type(value).__name__})")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if ``low <= value <= high``, else raise ``ValueError``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return float(value)


def find_duplicates(items) -> list:
    """Items appearing more than once, in first-duplicate order.

    Single linear pass (hashable items); used by the experiment sweeps to
    refuse result keys that would silently overwrite each other.
    """
    seen: set = set()
    duplicates: list = []
    for item in items:
        if item in seen and item not in duplicates:
            duplicates.append(item)
        seen.add(item)
    return duplicates
