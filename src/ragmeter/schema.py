"""The one type rule for settings and records: the CLI checks each JSON input by :func:`refusal`,
each settings or record dataclass its fields by :func:`check_fields`, and each other settings
class its arguments by :func:`check_arguments`, so a value is refused in the same words
whether it comes from a file or from code. What the library receives, a provider's reply
or a caller-built metric value, meets :func:`refusal` where it enters. A setting's range is
part of its hint, as `Annotated[float, Range(0, 1)]`, and is refused by the same rule. The
hints of each annotated object are read once, by :func:`type_hints`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import types
import typing
from collections.abc import Mapping, Sequence
from numbers import Integral, Real

_UNIONS = (typing.Union, types.UnionType)
_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string", type(None): "null"}


@dataclasses.dataclass(frozen=True, eq=False)
class Range:
    """The bound of a number, declared in its hint as `Annotated[int, Range(1)]`: at least
    `low`, and at most `high` unless that is None; an open end excludes its own value.

    Bounds compare by identity: `typing` caches each `Annotated` hint by its arguments,
    so an equal bound, as Range(0.0) is to Range(0), would otherwise lend its wording.
    """

    low: float
    high: float | None = None
    open_low: bool = False
    open_high: bool = False

    def __contains__(self, value: object) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        return above and (self.high is None or (value < self.high if self.open_high else value <= self.high))


def _is_number(value: object) -> bool:
    """A real number that converts to a finite float: `true` and `false` are not numbers."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _mismatch(value: object, schema: object) -> tuple[str, object, object] | None:
    """Where `value` departs from the JSON type `schema`, or None if it does not.

    The answer is (the path below `value`, the schema expected there, the value found
    there); the schema is None for a key that is not allowed, and the `(type,)` entry
    itself for a required key that is missing. Types are exact, except that an int is
    accepted where a float is expected, any integer but a bool where an int is
    expected, a float must be finite, and `Sequence[T]` and `Mapping[str, T]` take any
    such container but a string or bytes, with string keys (JSON gives only lists and
    objects). `object` accepts any value, a `(type,)` or (type, default) entry is
    checked as its type, and `Annotated[T, Range(...)]` as T and then against each
    bound, whose reach None is outside; a value out of bounds departs from that Range.
    """
    if isinstance(schema, tuple):
        return _mismatch(value, schema[0])
    if schema is float:
        fits = _is_number(value)
    elif schema is int:
        fits = isinstance(value, Integral) and not isinstance(value, bool)
    elif type(schema) is type:  # object, bool, str or NoneType
        fits = isinstance(value, schema)
    elif isinstance(schema, dict):
        fits = isinstance(value, dict)
        for name, item in value.items() if fits else ():
            found = _mismatch(item, schema[name]) if name in schema else ("", None, item)
            if found:
                return f".{name}{found[0]}", found[1], found[2]
        for name, item in schema.items() if fits else ():
            if isinstance(item, tuple) and len(item) == 1 and name not in value:
                return f".{name}", item, None
    else:
        origin, args = typing.get_origin(schema), typing.get_args(schema)
        if origin is typing.Annotated:
            found = _mismatch(value, args[0])
            if found or value is None:
                return found
            return next((("", bound, value) for bound in args[1:] if value not in bound), None)
        if origin in _UNIONS:
            fits = any(_mismatch(value, option) is None for option in args)
        elif origin is typing.Literal:
            fits = value in args
        else:  # list[T], Sequence[T] or Mapping[str, T]
            fits = isinstance(value, origin) and not isinstance(value, (str, bytes))
            fits = fits and (origin is not Mapping or all(isinstance(key, str) for key in value))
            for name, item in (value.items() if origin is Mapping else enumerate(value)) if fits else ():
                found = _mismatch(item, args[-1])
                if found:
                    return (f".{name}" if origin is Mapping else f"[{name}]") + found[0], found[1], found[2]
    return None if fits else ("", schema, value)


def refusal(value: object, schema: object, name: str) -> str | None:
    """Why `value`, called `name`, fails the JSON type `schema`, naming the dotted key that fails; None if it fits."""
    found = _mismatch(value, schema)
    if found is None:
        return None
    path, expected, got = found
    rule = ("is not a recognized key" if expected is None else "is required" if isinstance(expected, tuple)
            else f"must be {_describe(expected)}, got {reprlib.repr(got)}")
    return f"{(name + path).lstrip('.') or 'the top level'} {rule}"


def _describe(schema: object) -> str:
    if isinstance(schema, Range):  # ">= 1", "> 0" or "in (0, 1]"
        if schema.high is None:
            return f"{'>' if schema.open_low else '>='} {schema.low}"
        return f"in {'(' if schema.open_low else '['}{schema.low}, {schema.high}{')' if schema.open_high else ']'}"
    origin, args = typing.get_origin(schema), typing.get_args(schema)
    if origin in _UNIONS or origin is typing.Literal:
        return " or ".join(map(_describe if origin in _UNIONS else repr, args))
    if origin in (list, Sequence, Mapping):  # "a list of integers", "an object of strings"
        return f"{'an object' if origin is Mapping else 'a list'} of {_describe(args[-1]).split()[-1]}s"
    return "an object" if isinstance(schema, dict) else _NAMES.get(schema) or schema.__name__  # a class by its name


@functools.cache
def type_hints(annotated: object) -> Mapping[str, object]:
    """The hint of each name annotated on the function or class `annotated`, bounds kept.

    A class is read through its `__init__`: a dataclass gives its fields, another class
    the arguments of its constructor. Reading hints takes tens of microseconds, so each
    object's are read once per process, here and nowhere else.
    """
    target = annotated.__init__ if isinstance(annotated, type) else annotated
    return types.MappingProxyType(typing.get_type_hints(target, include_extras=True))


def check_fields(obj: object) -> None:
    """Raise ValueError with the first field of the dataclass `obj` whose value fails its type hint."""
    check_arguments(type(obj), {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)})


def check_arguments(annotated: object, arguments: Mapping[str, object]) -> None:
    """Raise ValueError with the first name annotated on `annotated` whose value in `arguments` fails its hint.

    A function checks its own arguments with `check_arguments(f, locals())` as its first
    statement, and a class its constructor's with `check_arguments(C, locals())`.
    """
    for name, hint in type_hints(annotated).items():
        if name in arguments and (problem := refusal(arguments[name], hint, name)):
            raise ValueError(problem)
