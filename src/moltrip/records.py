"""What a bare ``typing.NamedTuple`` or plain class does not give a record.

No class of the package is a dataclass: the decorator generates and
compiles every method of every class it touches, which with the
``inspect`` module it loads cost a fresh ``moltrip`` process about a
quarter of its start-up CPU.  Value records are NamedTuples; ``checked``
makes one run its own ``_check`` on every instance, and ``Frozen`` makes a
plain class immutable.
"""

from __future__ import annotations


def checked(cls):
    """Decorate a NamedTuple whose body defines ``_check``: construction,
    ``_make``, ``_replace`` and unpickling all build through the checked
    constructor, so no instance skips the check."""
    new = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


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
