"""Immutable value records, with no code generated at import.

A ``Record`` subclass declares its fields as class annotations.  The base
reads their names once, when the subclass is created, and supplies

* ``__init__`` taking the fields by position or keyword, then calling
  ``__post_init__`` (a no-op unless the subclass validates or normalizes);
* ``__eq__`` and ``__hash__`` over the field values, for instances of the
  same class only;
* ``__repr__`` as ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``;
* ``__reduce__`` through the constructor, so pickling and copying rebuild a
  record the way it was first built.

The CLI checks one key per interpreter, so import time is part of every
check; the base costs one small class, where generating these methods for
each record class would compile and execute their source at every start.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value classes (see the module doc)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self).__qualname__, fields, args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        values = self.__dict__
        fields = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()


def _bind(name: str, fields: tuple[str, ...], args: tuple, kwargs: dict) -> list:
    """Field values in declaration order from positional and keyword arguments."""
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
        )
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [key for key in fields if key not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return [values[key] for key in fields]
