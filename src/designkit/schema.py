"""Typed reading of JSON specs.

Every JSON spec (sweep, optimize, wing and simulate specs, and rotor
descriptions) is read through a table: a mapping from JSON key to a
:class:`Key`.  Kinds check JSON types only; ranges and memberships stay
with the classes that own them.
"""

import math
import sys
from functools import cache
from typing import Callable, NamedTuple

from .errors import ConfigError

REQUIRED = object()   # default of a key that must be given
UNSET = object()      # default of a key whose field keeps its constructor's default


def _finite(value):
    """A JSON number within float range: not a bool, NaN or +-Infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class Kind(NamedTuple):
    """A JSON type: ``accepts`` tests a JSON value, ``value`` turns it into
    a field value, and ``radians`` does so for a value in degrees."""

    name: str
    accepts: Callable
    value: Callable = lambda v: v
    radians: Callable = math.radians


NUMBER = Kind("a finite number", _finite)
INTEGER = Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
BOOLEAN = Kind("true or false", lambda v: isinstance(v, bool))
STRING = Kind("a string", lambda v: isinstance(v, str))
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))
NUMBERS = Kind("a list of finite numbers",
               lambda v: isinstance(v, list) and all(map(_finite, v)),
               tuple, lambda v: tuple(map(math.radians, v)))


@cache
def rows(n):
    """A list of rows of ``n`` finite numbers; in degrees, the last column
    holds the angle."""
    return Kind(f"a list of rows of {n} finite numbers",
                lambda v: isinstance(v, list) and all(
                    isinstance(row, list) and len(row) == n and all(map(_finite, row))
                    for row in v),
                radians=lambda v: [[*row[:-1], math.radians(row[-1])] for row in v])


class Key(NamedTuple):
    """A table entry: the field a JSON key fills, its kind, its default (in
    field units, or REQUIRED or UNSET) and whether the value is in degrees."""

    field: str
    kind: Kind
    default: object = UNSET
    deg: bool = False


def read(table, data, prefix=""):
    """Field values from the JSON object ``data`` by ``table``.

    ``prefix`` is the dotted path of ``data`` in its spec.  Keys starting
    with "_" are comments; any other key not in ``table`` is an error.
    """
    for key in data:
        if key not in table and not key.startswith("_"):
            raise ConfigError(f"unknown key {prefix}{key}; expected one of {', '.join(table)}")
    fields = {}
    for key, entry in table.items():
        if key in data:
            value = data[key]
            if not entry.kind.accepts(value):
                raise ConfigError(f"{prefix}{key} must be {entry.kind.name}, got {value!r}")
            fields[entry.field] = (entry.kind.radians if entry.deg else entry.kind.value)(value)
        elif entry.default is REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        elif entry.default is not UNSET:
            fields[entry.field] = entry.default
    return fields
