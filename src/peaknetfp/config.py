"""The JSON form of every config: checkpoints, databases, reports, ``-c`` files.

A config is a frozen dataclass that inherits :class:`JsonConfig`. Its JSON
comes from its own fields, in field order, so a field added to a config
reaches every file that stores it with no second list to edit:

- ``to_dict`` turns nested configs into dicts and tuples into lists;
- ``from_dict`` rebuilds nested configs and ``tuple[X, ...]`` fields from the
  fields' type hints, checks every scalar and tuple item against its hint,
  and passes the values as stored to the config's own checks. An ``int``
  takes no bool or float, and a ``float`` takes an int, stored as a float, but
  no bool. A key that is not a field, a value of the wrong type, a missing
  field without a default, and a value the config rejects all raise
  :class:`ConfigError`.
"""
from __future__ import annotations

import dataclasses
import typing

from .errors import ConfigError


def _to_json(value):
    if isinstance(value, JsonConfig):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _from_json(hint, value, name: str):
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} expects a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_from_json(item, v, name) for v in value)
    if isinstance(hint, type) and issubclass(hint, JsonConfig):
        return hint.from_dict(value)
    if hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is out of float range: {value!r}") from None
    if type(value) is not hint:  # exact types, so a bool is no int
        raise ConfigError(f"{name} expects {hint.__name__}, got {value!r}")
    return value


class JsonConfig:
    """``to_dict``/``from_dict`` for a dataclass, read off its fields."""

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{name} needs a JSON object, got {d!r}")
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"{name} has no field {unknown[0]!r}")
        values = {key: _from_json(hints[key], v, f"{name}.{key}") for key, v in d.items()}
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}") from exc
