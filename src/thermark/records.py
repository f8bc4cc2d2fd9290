"""Immutable record types with one generated ``__init__`` each.

A record class subclasses :class:`Record` and lists its fields as
annotations, in order; a class attribute with a field's name is that
field's default, shared by every instance that takes it. Creating the
class compiles one ``__init__``:

    def __init__(self, a, b=_d_b):
        self.__dict__.update(a=a, b=b)
        self.__post_init__()  # only when the class defines one

so Python binds the arguments, and a missing, unknown or repeated one
raises ``TypeError``. Freezing, equality and hashing by value, ``repr``
and :meth:`Record.replace` are written once, here; a field that holds an
``ndarray`` compares with ``np.array_equal`` and makes the record
unhashable, and a ``dict`` field compares its values the same way.
``dataclasses`` would generate and compile six or more methods per class
at import, about a millisecond each, in every fresh process.
"""

from __future__ import annotations

import inspect

import numpy as np

_MISSING = object()


def _equal(a: object, b: object) -> bool:
    """Field equality by value: arrays by ``np.array_equal``, dicts key by key."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


class Record:
    """Base of the package's immutable value types."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(inspect.get_annotations(cls))
        namespace = {}
        params, body = [], []
        for name in cls._fields:
            default = cls.__dict__.get(name, _MISSING)
            if default is not _MISSING:
                namespace[f"_d_{name}"] = default
                params.append(f"{name}=_d_{name}")
            elif params and "=" in params[-1]:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                "follows one with a default")
            else:
                params.append(name)
        fields = ", ".join(f"{name}={name}" for name in cls._fields)
        body.append(f"    self.__dict__.update({fields})\n")
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()\n")
        exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes: object) -> Record:
        """A copy with ``changes`` applied, built and validated like a new instance."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})
