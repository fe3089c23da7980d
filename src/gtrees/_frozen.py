"""The read-only value protocol of the library's slotted value classes.

A subclass names its constructor arguments, in order, in `_fields`, passes
them to `Frozen.__init__`, and lists them first in its `__slots__`.  Copy,
pickle and repr read `_fields`; equality and hashing read `_key`, which is
`_fields` unless the subclass narrows it.  A subclass may keep derived
tables in further slots and fill them with `object.__setattr__`; equality
and hashing never see them.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    _fields: tuple[str, ...]
    _key: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_key" not in cls.__dict__:
            cls._key = cls._fields

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ leaves as the only writer
        return (self.__class__, self._values(self._fields))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._key) == other._values(self._key)

    def __hash__(self) -> int:
        return hash(self._values(self._key))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__name__}({fields})"
