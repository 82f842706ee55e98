"""Frozen records, built without ``dataclasses``.

``@record`` reads a class's own annotations, in order, and their plain
defaults, and compiles one ``__init__`` that takes those fields and then
calls ``__post_init__`` if there is one. ``==`` compares the fields of two
records of one class, ``hash`` hashes them, ``repr`` lists every field not
annotated ``np.ndarray`` (record modules use ``from __future__ import
annotations``, so the annotation is that string), and assigning or deleting
an attribute raises ``dataclasses.FrozenInstanceError`` with dataclasses'
messages. These five functions are shared by every record.
``@dataclass(frozen=True)`` compiles six methods per class with ``exec`` in
every process that imports it, and importing ``dataclasses`` loads
``inspect``; defining a record compiles one method instead of six and loads
no ``inspect``.

Records are still frozen dataclasses. ``__dataclass_fields__`` and
``__dataclass_params__`` start as class attributes that register the class
with ``dataclasses`` on their first read, and every ``dataclasses``
function (``fields``, ``replace``, ``asdict``, ``is_dataclass``) begins
with such a read. Write a docstring for every record: for a class without
one, that registration builds one through ``inspect.signature``.
``replace`` here rebuilds a record through its ``__init__`` as
``dataclasses.replace`` does, without registering it.
"""

from __future__ import annotations

import sys

__all__ = ["record", "replace"]

_ARRAY = "np.ndarray"  # the annotation of a field that repr leaves out
_MISSING = object()


def record(cls):
    """``cls`` as a frozen record. Its ``__init__`` takes the fields in order,
    with plain defaults, and then calls ``__post_init__`` if there is one."""
    dataclasses = sys.modules.get("dataclasses")  # a Field exists only once it is loaded
    annotations = cls.__annotations__
    params, body = [], []
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    for name in annotations:
        default = vars(cls).get(name, _MISSING)
        if dataclasses and isinstance(default, dataclasses.Field):
            raise TypeError(f"record field {cls.__name__}.{name}: default_factory and "
                            "other field() options are not supported; give a plain default")
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__ = cls._record_fields = tuple(annotations)
    cls._record_shown = tuple(name for name in annotations if annotations[name] != _ARRAY)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__replace__ = replace  # copy.replace, Python 3.13 and later
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _Registration(cls, name))
    return cls


def replace(obj, /, **changes):
    """A copy of record ``obj`` with ``changes``, built through its
    ``__init__`` (so ``__post_init__`` runs), as ``dataclasses.replace``
    builds it; an unknown field name raises the same TypeError."""
    values = {name: getattr(obj, name) for name in obj._record_fields}
    return obj.__class__(**(values | changes))


class _Registration:
    """A record's ``__dataclass_fields__`` or ``__dataclass_params__`` until
    the first read of either registers the record with ``dataclasses``."""

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner=None):
        _register(self.cls)
        return vars(self.cls)[self.name]


def _register(cls) -> None:
    """Make ``cls`` a dataclass that keeps its own methods, with the flags and
    ``repr`` choices of what the record provides. ``dataclass`` replaces both
    ``_Registration`` attributes and reads neither, so a second registration,
    from another thread, gives the same result."""
    import dataclasses

    dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    for f in dataclasses.fields(cls):
        f.repr = f.name in cls._record_shown
    flags = cls.__dataclass_params__
    flags.init = flags.repr = flags.eq = flags.frozen = True


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self._record_fields)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_shown)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")
