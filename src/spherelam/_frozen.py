"""The base of the immutable value classes (slopes, punctures, arcs, ...).

Written out rather than generated by :mod:`dataclasses`, whose import and
per-class code generation cost a command line call more than the
mathematics of a light command.
"""


class Frozen:
    """An immutable value with slots.

    A subclass lists its attributes in ``__slots__``, sets them in its own
    ``__init__`` through ``object.__setattr__`` (plain assignment raises
    :class:`AttributeError`) and names its fields in ``_fields``.  As for a
    frozen dataclass, ``repr`` reads ``Name(field=value, ...)``, two values
    are equal when they are of one class with equal fields, and the hash is
    the hash of the tuple of the fields.  A class that is hashed often, or
    that compares otherwise, overrides ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
