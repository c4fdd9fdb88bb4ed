"""Writing into a TabularPolicy's live logits, whose rows are immutable."""

from __future__ import annotations


def set_logit(table, s: int, a: int, value: float) -> None:
    """Replace live row s with a copy whose entry a is value."""
    row = list(table.logits[s])
    row[a] = value
    table.logits[s] = tuple(row)
