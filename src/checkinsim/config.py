"""Typed config sections, checked field by field by one walk (``_value``).

A section is a frozen dataclass subclassing ``Section``; ``load`` builds one
from parsed JSON and ``dump`` is its inverse.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from enum import Enum

_COORDINATES = {"lat": {"ge": -90.0, "le": 90.0}, "lon": {"ge": -180.0, "le": 180.0}}


class InvalidConfig(ValueError):
    """A refused config value; ``path`` names it, empty for the whole document."""

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(f"{path}: {problem}" if path else problem)
        self.problem, self.path = problem, path

    def within(self, prefix: str) -> "InvalidConfig":
        return InvalidConfig(self.problem, _join(prefix, self.path))


def _join(prefix: str, name: str) -> str:
    if not prefix or name.startswith("["):
        return prefix + name
    return f"{prefix}.{name}" if name else prefix


def ranged(default=dataclasses.MISSING, **bounds):
    """A field whose value, or each element of it, is ``>= ge``, ``> gt`` and ``<= le``."""
    return dataclasses.field(default=default, metadata=bounds)


class Section:
    """Building a section checks every field, then ``check`` checks across fields."""

    def __post_init__(self) -> None:
        for name, tp, bounds, _ in _fields(type(self)):
            object.__setattr__(self, name, _value(tp, getattr(self, name), name, bounds))
        self.check()

    def check(self) -> None:
        pass


_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, bounds, required) per field, resolved once per class."""
    return tuple((f.name, _hints(cls)[f.name], f.metadata,
                  f.default is f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def load(cls, data, path: str = ""):
    """Section ``cls`` built from the parsed JSON object ``data``."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise InvalidConfig(f"must be an object, got {data!r}", path)
    fields = _fields(cls)
    unknown = set(data) - {name for name, *_ in fields}
    if unknown:
        raise InvalidConfig(f"unknown keys {sorted(map(str, unknown))}", path)
    for name, _, _, required in fields:
        if required and name not in data:
            raise InvalidConfig("is required", name).within(path)
    try:
        return cls(**data)
    except InvalidConfig as exc:
        raise exc.within(path) from None


def dump(value):
    """The JSON value ``load`` builds ``value`` from."""
    if isinstance(value, Section):
        return {name: dump(getattr(value, name)) for name, *_ in _fields(type(value))}
    if isinstance(value, tuple):
        return [dump(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def _number(value, path: str, bounds, integer: bool):
    ge, gt, le = bounds.get("ge"), bounds.get("gt"), bounds.get("le")
    # abs() of a NaN, an infinity or an int beyond every float exceeds the largest float
    ok = type(value) is int if integer else \
        type(value) in (int, float) and abs(value) <= sys.float_info.max
    if ok and (ge is None or value >= ge) and (gt is None or value > gt) \
            and (le is None or value <= le):
        return value
    limits = f" in [{ge}, {le}]" if le is not None else f" >= {ge}" if ge is not None \
        else f" > {gt}" if gt is not None else ""
    what = "an integer" if integer else "a finite number"
    raise InvalidConfig(f"must be {what}{limits}, got {value!r}", path)


def _value(tp, value, path: str, bounds):
    """``value`` as a field annotated ``tp`` with ``ranged`` ``bounds`` holds it.

    An int is a JSON integer and a float any finite number, never a bool. A
    list becomes a tuple, a ``GeoPoint``/``BBox`` of valid coordinates or
    sections, and an object becomes a section: in a union, the one whose
    ``kind`` it names. Each refusal is ``InvalidConfig`` naming the path, such
    as ``badges[0].threshold``.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:  # Optional[X]
            return None if value is None else _value(options[0], value, path, bounds)
        if isinstance(value, tuple(options)):
            return value
        if not isinstance(value, dict):
            raise InvalidConfig(f"must be an object, got {value!r}", path)
        kinds = {typing.get_args(_hints(cls)["kind"])[0]: cls for cls in options}
        kind = _value(typing.Literal[tuple(sorted(kinds))], value.get("kind"),
                      _join(path, "kind"), bounds)
        return load(kinds[kind], value, path)
    if origin is typing.Literal:
        if type(value) is not str or value not in args:
            raise InvalidConfig(f"must be one of {list(args)}, got {value!r}", path)
        return value
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not variadic and len(value) != len(args):
            shape = "a list" if variadic else f"a list of {len(args)}"
            raise InvalidConfig(f"must be {shape}, got {value!r}", path)
        types = args[:1] * len(value) if variadic else args
        return tuple(_value(t, v, f"{path}[{i}]", bounds)
                     for i, (t, v) in enumerate(zip(types, value)))
    if tp is int or tp is float:
        return _number(value, path, bounds, tp is int)
    if tp is bool or tp is str:
        if type(value) is not tp:
            what = "true or false" if tp is bool else "a string"
            raise InvalidConfig(f"must be {what}, got {value!r}", path)
        return value
    if issubclass(tp, Enum):
        return value if isinstance(value, tp) else \
            tp(_value(typing.Literal[tuple(m.value for m in tp)], value, path, bounds))
    if issubclass(tp, tuple):  # a NamedTuple of coordinates, such as GeoPoint or BBox
        if not isinstance(value, (list, tuple)) or len(value) != len(tp._fields):
            raise InvalidConfig(f"must be a list of {len(tp._fields)} numbers "
                                f"{list(tp._fields)}, got {value!r}", path)
        return tp(*(_number(v, f"{path}[{i}]", _COORDINATES[name[-3:]], False)
                    for i, (name, v) in enumerate(zip(tp._fields, value))))
    return load(tp, value, path)
