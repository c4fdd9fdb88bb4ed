"""Bases for the record types that a bare ``typing.NamedTuple`` does not cover.

The package builds its records without ``dataclasses``: the decorator
generates and compiles every method of every class it touches, which with
the ``inspect`` module it loads cost a fresh ``moltrip`` process about a
quarter of its start-up CPU.  Value records are NamedTuples; ``Checked``
adds a validity check to one, and ``Frozen`` makes a plain class immutable.
"""

from __future__ import annotations


class Checked:
    """Mixin listed before a NamedTuple base: every instance that
    construction or ``_replace`` makes passes the class's ``_check``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):  # what _replace builds through
        return cls(*iterable)


class Frozen:
    """Base of a plain class whose attributes ``__init__`` sets once,
    through ``object.__setattr__`` or the instance ``__dict__``; setting or
    deleting one afterwards raises AttributeError.  A
    ``functools.cached_property`` still fills its cache, since it writes the
    instance ``__dict__`` directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
