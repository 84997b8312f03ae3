"""Flat `key = value` text config, shared by merge and synth configs."""

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


def as_bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def as_floats(value: str) -> list:
    """Comma-separated float list; empty string means empty list."""
    value = value.strip()
    if not value:
        return []
    return [float(part) for part in value.split(",")]


def build(cls, text: str, parsers: dict, what: str):
    """The dataclass cls from `key = value` text, each value through parsers[key].

    A key with no parser, a field of cls with no default left out, or a
    value its parser rejects raises a ValueError naming the key.
    """
    raw = loads(text)
    unknown = set(raw) - set(parsers)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.name not in raw
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{what} key {key!r}: {exc}") from None
    return cls(**values)
