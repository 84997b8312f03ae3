"""Flat `key = value` text config, shared by merge and synth configs.

A config dataclass's text is one line per field, in field order, each
value written and parsed by its annotation's (parse, format) pair
(_CODECS); the config modules postpone annotations, so a field's type
is its annotation's text.  The fields are read from the class's
`__dataclass_fields__` mapping (no config declares a ClassVar or
InitVar), not dataclasses.fields, whose per-call tuple a `merge` op
would keep on the allocator's free list through its fits."""

from __future__ import annotations

import dataclasses


def loads(text: str) -> dict:
    """Parse into an ordered str→str dict. '#' lines and blanks are skipped."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def dumps(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def as_floats(value: str) -> list:
    """Comma-separated float list; empty string means empty list."""
    value = value.strip()
    if not value:
        return []
    return [float(part) for part in value.split(",")]


_CODECS = {  # annotation -> (parse, format)
    "int": (int, str),
    "float": (float, lambda v: repr(float(v))),
    "str": (str, str),
    "tuple": (as_floats, lambda v: ",".join(repr(x) for x in v)),  # of floats
}


def dump(config) -> str:
    """The dataclass instance config as `key = value` lines, in field order."""
    return dumps(
        {k: _CODECS[f.type][1](getattr(config, k)) for k, f in config.__dataclass_fields__.items()}
    )


def build(cls, text: str, what: str):
    """The dataclass cls from `key = value` text, each value parsed by its field's type.

    A key that names no field, a field of cls with no default left out,
    or a value its parser rejects raises a ValueError naming the key.
    """
    raw = loads(text)
    fields = cls.__dataclass_fields__
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        name for name, f in fields.items()
        if name not in raw
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _CODECS[fields[key].type][0](value)
        except ValueError as exc:
            raise ValueError(f"{what} key {key!r}: {exc}") from None
    return cls(**values)
