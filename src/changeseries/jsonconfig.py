"""One JSON round-trip for the frozen configuration dataclasses.

A config is written as an object with one key per dataclass field; a field
may rename its key through the field metadata {"key": ...}.  Reading
walks the same fields and coerces each value with its annotated type:
bool, int, float (an int is accepted), str, a nested config, or any of
these or None.  Unknown keys are ignored.  A missing key, a value of the
wrong type or a non-object raises ValueError naming the key.
"""

from __future__ import annotations

import types
import typing
from dataclasses import fields, is_dataclass


class JsonConfig:
    """Mixin giving a config dataclass to_jsonable and from_jsonable."""

    def to_jsonable(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.metadata.get("key", f.name)] = (
                value.to_jsonable() if isinstance(value, JsonConfig) else value
            )
        return out

    @classmethod
    def from_jsonable(cls, obj):
        return _load(cls, obj, cls.__name__)


def _load(tp, value, where: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected an object, got {type(value).__name__}")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for f in fields(tp):
            key = f.metadata.get("key", f.name)
            if key not in value:
                raise ValueError(f"{where}: missing key {key!r}")
            kwargs[f.name] = _load(hints[f.name], value[key], f"{where}.{key}")
        return tp(**kwargs)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise ValueError(f"{where}: expected {tp.__name__}, got {type(value).__name__}")
    return value
