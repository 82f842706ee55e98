"""Frozen records, built without per-class code generation.

``@record`` turns a class into a frozen dataclass: ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` accept it, ``==`` compares the
fields of two records of one class, ``hash`` hashes them, ``repr`` lists
the fields not declared with ``field(repr=False)``, and assigning or
deleting an attribute raises ``dataclasses.FrozenInstanceError`` with
dataclasses' messages. ``@dataclass(frozen=True)`` compiles six methods per
class with ``exec`` in every process that imports it; a record compiles
only its ``__init__``, and shares the other five functions with every other
record. Write a docstring for every record: for a class without one,
``dataclass`` builds one through ``inspect.signature``.
"""

from __future__ import annotations

import dataclasses

__all__ = ["record"]


def record(cls):
    """``cls`` as a frozen record. Its ``__init__`` takes the fields in order,
    with plain defaults, and then calls ``__post_init__`` if there is one."""
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    params, body = [], []
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING or not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name}: default_factory and "
                            "init=False are not supported")
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set(self, {f.name!r}, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    flags = cls.__dataclass_params__  # what the record provides, for subclasses
    flags.init = flags.repr = flags.eq = flags.frozen = True
    return cls


def _values(self) -> tuple:
    return tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.compare)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in dataclasses.fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
