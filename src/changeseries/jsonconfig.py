"""The JSON and command-line round trip of the frozen configuration dataclasses.

A config is written as an object with one key per dataclass field; a field
may rename its key through the field metadata {"key": ...}.  Reading
walks the same fields and coerces each value with its annotated type:
bool, int, float (an int is accepted), str, a nested config, a typed tuple
such as tuple[int, ...] (a JSON list), or any of these or None.  Unknown
keys are ignored.  A missing key, a value of the wrong type or a
non-object raises ValueError naming the key and any list index.  A field
declared with init=False is derived from the others, so it is neither
written nor read.  from_partial first merges the object, recursively,
over the defaults' to_jsonable(), so there a missing key takes its
default; it reads a hand-written file, so there an unknown key, nested
sections included, raises ValueError naming its dotted path.

On the command line, add_flags gives an argparse parser one flag per field,
in field order: the JSON key with dashes unless the metadata {"flag": ...}
spells it, typed by its annotation, limited to the metadata {"choices": ...}
if given, and defaulted by the field, so a flag's default is the dataclass's
own.  A field whose metadata is {"flag": None} gets no flag.
from_args builds the config back from the parsed namespace; a field without
a flag takes its default.
"""

from __future__ import annotations

import types
import typing
from dataclasses import fields, is_dataclass


class JsonConfig:
    """Mixin giving a config dataclass its JSON and command-line round trip."""

    def to_jsonable(self) -> dict:
        out = {}
        for f in _stored(self):
            value = getattr(self, f.name)
            value = value.to_jsonable() if isinstance(value, JsonConfig) else value
            out[f.metadata.get("key", f.name)] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_jsonable(cls, obj):
        return _load(cls, obj, cls.__name__)

    @classmethod
    def from_partial(cls, obj):
        return _load(cls, _merge(cls().to_jsonable(), obj), cls.__name__, strict=True)

    @classmethod
    def add_flags(cls, parser) -> None:
        """Add one flag per field, spelled by its metadata's "flag", else by its JSON
        key with dashes, and limited to its metadata's "choices" if it has any.  A
        metavar spells the flag it follows ("--t T", not "--t T_LEN")."""
        hints = typing.get_type_hints(cls)
        for f in _flagged(cls):
            flag = f.metadata.get("flag", "--" + f.metadata.get("key", f.name).replace("_", "-"))
            if "choices" in f.metadata:
                kwargs = {"choices": f.metadata["choices"]}
            else:
                kwargs = {"metavar": flag.lstrip("-").replace("-", "_").upper()}
            parser.add_argument(flag, dest=f.name, type=hints[f.name], default=f.default, **kwargs)

    @classmethod
    def from_args(cls, args):
        return cls(**{f.name: getattr(args, f.name) for f in _flagged(cls)})


def _stored(cls) -> list:
    return [f for f in fields(cls) if f.init]


def _flagged(cls) -> list:
    return [f for f in fields(cls) if f.metadata.get("flag", "") is not None]


def _merge(default, value):
    if not (isinstance(default, dict) and isinstance(value, dict)):
        return value
    return {**default, **{k: _merge(default.get(k), v) for k, v in value.items()}}


def _wrong(where: str, key: str | None, expected: str, value) -> ValueError:
    named = f" for key {key!r}" if key else ""
    return ValueError(f"{where}: expected {expected}{named}, got {type(value).__name__}")


def _load(tp, value, where: str, key: str | None = None, strict: bool = False):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _wrong(where, key, "an object", value)
        hints = typing.get_type_hints(tp)
        names = {f.metadata.get("key", f.name): f for f in _stored(tp)}
        for name in value if strict else ():
            if name not in names:
                raise ValueError(f"{where}.{name}: unknown key")
        kwargs = {}
        for name, f in names.items():
            if name not in value:
                raise ValueError(f"{where}: missing key {name!r}")
            kwargs[f.name] = _load(hints[f.name], value[name], f"{where}.{name}", name, strict)
        return tp(**kwargs)
    if typing.get_origin(tp) is tuple:
        if type(value) is not list:
            raise _wrong(where, key, "a list", value)
        entry = typing.get_args(tp)[0]
        return tuple(_load(entry, v, f"{where}[{i}]", key, strict) for i, v in enumerate(value))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise _wrong(where, key, tp.__name__, value)
    return value
