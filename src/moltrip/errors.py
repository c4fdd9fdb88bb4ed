"""Error types shared by more than one module."""

from __future__ import annotations


class LengthMismatch(ValueError):
    """Paired sequences of different lengths."""


class EmptyCollection(ValueError):
    """An aggregate was requested over zero items."""


class UnknownState(KeyError):
    """A tabular policy was asked about a state outside its table."""
