"""The one JSON codec every spec document goes through.

A spec is a dataclass: its fields, type hints and defaults are the whole
schema, resolved once per class.  Deriving from :class:`Spec` gives it
``as_dict``/``to_json``/``from_dict``/``from_json``.  The rules:

* encoding emits only the fields that differ from their defaults;
* decoding is strict about JSON types: a bool only from a JSON bool, an
  int from a non-bool integer, a float from any number (stored as a
  float), a str from a string; ``X | None`` also takes ``null``; nested
  specs come from objects, ``tuple[X, ...]``/``list[X]`` from arrays,
  fixed-length ``tuple[X, Y]`` from arrays of exactly that length, enums
  from their value, and a bare ``Mapping`` from any object (kept as is);
* unknown and missing fields are rejected;
* every failure — a ``ValueError`` from the spec's ``__post_init__``
  included — is a :class:`SpecError` whose path names the offending value
  completely, e.g. ``scenario.sites[1].position[0]``.

Layering note: like :mod:`repro.sim.faults`, this module imports no model
code, so :mod:`repro.plan.spec` and :mod:`repro.faults.plan` share it
without an import cycle.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from collections.abc import Mapping
from enum import Enum
from functools import cache
from types import NoneType, UnionType
from typing import Any

_REQUIRED = object()   # schema default of a field the document must give

_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a number",
               str: "a string"}


class SpecError(ValueError):
    """A spec failed validation; the message starts with the spec path
    (e.g. ``sites[1].replication``) naming the offending axis."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class Spec:
    """Base for spec dataclasses: the JSON codec, from fields and hints.

    The ``context`` class keyword is the root path errors are reported
    under when ``from_dict``/``from_json`` get none.
    """

    _context = ""

    def __init_subclass__(cls, context: str = "", **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._context = context

    def as_dict(self) -> dict:
        return encode(self)

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic JSON for fixtures and experiment provenance."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, doc: Any, context: str | None = None):
        return decode(cls, doc, cls._context if context is None else context)

    @classmethod
    def from_json(cls, text: str, context: str | None = None):
        return cls.from_dict(json.loads(text), context)


@cache
def schema(cls: type) -> tuple[tuple[str, Any, Any], ...]:
    """``(name, type, default)`` per field of dataclass ``cls``; the
    default of a required field is a private sentinel."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            default = _REQUIRED
        out.append((f.name, hints[f.name], default))
    return tuple(out)


def field_types(cls: type) -> dict[str, Any]:
    """Field name → resolved type hint of dataclass ``cls``."""
    return {name: tp for name, tp, _ in schema(cls)}


def encode(value: Any) -> Any:
    """The JSON form of ``value``; specs emit only non-default fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: encode(v) for name, _, default in schema(type(value))
                if (v := getattr(value, name)) != default}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, Mapping):
        return {k: encode(v) for k, v in value.items()}
    return value


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def decode(tp: Any, value: Any, path: str) -> Any:
    """``value`` checked against type ``tp``; errors name ``path``."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, UnionType):
        if value is None and NoneType in args:
            return None
        (inner,) = [a for a in args if a is not NoneType]
        return decode(inner, value, path)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise SpecError(path, f"expected a list of {len(args)} "
                                      f"items, got {value!r}")
            return tuple(decode(a, v, f"{path}[{i}]")
                         for i, (a, v) in enumerate(zip(args, value)))
        items = [decode(args[0], v, f"{path}[{i}]")
                 for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if origin is Mapping:
        if not isinstance(value, Mapping):
            raise SpecError(path, f"expected an object, got {value!r}")
        return value
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            known = ", ".join(str(m.value) for m in tp)
            raise SpecError(path, f"unknown {tp.__name__} {value!r}; "
                                  f"known values: {known}") from None
    if dataclasses.is_dataclass(tp):
        return _decode_spec(tp, value, path)
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif tp in (bool, str):
        if isinstance(value, tp):
            return value
    else:
        raise TypeError(f"{path}: no JSON codec for type {tp!r}")
    raise SpecError(path, f"expected {_TYPE_NAMES[tp]}, got {value!r}")


def _decode_spec(cls: type, doc: Any, path: str) -> Any:
    if not isinstance(doc, Mapping):
        raise SpecError(path, f"expected an object, got {doc!r}")
    fields = schema(cls)
    known = sorted(name for name, _, _ in fields)
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise SpecError(path,
                        f"unknown field(s) {', '.join(map(repr, unknown))}; "
                        f"known fields: {', '.join(known)}")
    kwargs = {}
    for name, tp, default in fields:
        if name in doc:
            kwargs[name] = decode(tp, doc[name], _join(path, name))
        elif default is _REQUIRED:
            raise SpecError(path, f"missing required field {name!r}")
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(path, str(exc)) from None
