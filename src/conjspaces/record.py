"""Base classes of the package's value types.

The value types are plain classes with ``__slots__`` rather than
dataclasses: ``dataclasses`` imports ``inspect`` and builds every
class's methods with ``exec``, which cost each CLI process about 30 ms
of start-up.  A subclass names its fields in ``__slots__``, in
constructor order, and writes its own ``__init__``.
"""

from __future__ import annotations


class Record:
    """Mutable record: equal to a record of the same class with equal
    fields, unhashable, and shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable record, hashed as its field tuple.  ``__init__`` sets
    the fields through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of "
                             f"{type(self).__qualname__}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which may set fields
        return type(self), self._values()
