"""Typed config sections, checked field by field by one walk (``_value``).

A section is a frozen record subclassing ``Section``; ``load`` builds one
from parsed JSON and ``dump`` is its inverse.
"""

from __future__ import annotations

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


_REQUIRED = object()  # the default of a field without one


class _Ranged(tuple):
    """(default, bounds) of a field declared by ``ranged``."""


def ranged(default=_REQUIRED, **bounds) -> _Ranged:
    """A field whose value, or each element of it, is ``>= ge``, ``> gt`` and ``<= le``."""
    return _Ranged((default, bounds))


class Section:
    """A frozen record of its class's annotated fields, after its base's (a redeclared
    field keeps its place); defaults stay class attributes, and ``__dict__`` holds the
    fields in order. Arguments bind as in a call (keywords only if ``kw_only``); each
    field is checked, then ``check`` runs across fields."""

    _spec: dict = {}  # name -> (default, bounds), in field order
    _positional: tuple = ()  # the fields an argument may bind by position

    def __init_subclass__(cls, kw_only: bool = False) -> None:
        spec = dict(cls._spec)
        for name in cls.__dict__.get("__annotations__", ()):
            value = cls.__dict__.get(name, _REQUIRED)
            default, _ = spec[name] = value if isinstance(value, _Ranged) else (value, {})
            if default is not _REQUIRED:
                setattr(cls, name, default)
            elif name in cls.__dict__:
                delattr(cls, name)
        cls._spec, cls._positional = spec, () if kw_only else tuple(spec)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        named = dict(zip(cls._positional, args))
        if len(named) < len(args) or named.keys() & kwargs:
            raise TypeError(f"{cls.__qualname__}() takes at most {len(cls._positional)} positional "
                            f"arguments, none also passed by keyword; got {len(args)} and "
                            f"keywords {sorted(kwargs)}")
        kwargs.update(named)
        unknown = kwargs.keys() - cls._spec.keys()
        missing = [name for name, (default, _) in cls._spec.items()
                   if default is _REQUIRED and name not in kwargs]
        if unknown or missing:
            raise TypeError(f"{cls.__qualname__}() got unknown arguments {sorted(unknown)} "
                            f"and lacks required arguments {missing}")
        for name, tp, bounds in _fields(cls):
            value = kwargs[name] if name in kwargs else getattr(cls, name)
            object.__setattr__(self, name, _value(tp, value, name, bounds))
        self.check()

    def check(self) -> None:
        pass

    def replace(self, **changes) -> "Section":
        """A copy with ``changes``, checked as a new section is."""
        return type(self)(**{**vars(self), **changes})

    def __setattr__(self, name, *value) -> None:
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, bounds) per field, resolved once per class."""
    return tuple((name, _hints(cls)[name], bounds) for name, (_, bounds) in cls._spec.items())


def load(cls, data, path: str = ""):
    """Section ``cls`` built from the parsed JSON object ``data``."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise InvalidConfig(f"must be an object, got {data!r}", path)
    unknown = set(data) - cls._spec.keys()
    if unknown:
        raise InvalidConfig(f"unknown keys {sorted(map(str, unknown))}", path)
    for name, (default, _) in cls._spec.items():
        if default is _REQUIRED and name not in data:
            raise InvalidConfig("is required", name).within(path)
    try:
        return cls(**data)
    except InvalidConfig as exc:
        raise exc.within(path) from None


def dump(value):
    """The JSON value ``load`` builds ``value`` from."""
    if isinstance(value, Section):
        return {name: dump(getattr(value, name)) for name in value._spec}
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
