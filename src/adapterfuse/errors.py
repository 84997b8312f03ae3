"""Error types shared across the package.

All of these derive from ValueError so callers that only care about
"bad input" can catch one type; the CLI maps them to exit code 2.
"""


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; the message names the offender."""


class SchemaError(ValueError):
    """An adapter library violates its (task, layer) schema."""


class ContainerFormatError(ValueError):
    """A serialized container is malformed (bad magic, header, or framing)."""


class ChecksumError(ContainerFormatError):
    """Container payload bytes do not match the recorded checksum."""


def require_keys(header: dict, keys, path) -> list:
    """Values of the required header keys, in order; a missing one is named."""
    if not isinstance(header, dict):
        raise ContainerFormatError(f"{path}: expected a JSON object, got {header!r:.40}")
    for key in keys:
        if key not in header:
            raise ContainerFormatError(f"{path}: header is missing {key!r}")
    return [header[key] for key in keys]


def require_span(offset, nbytes: int, size: int, what: str, path) -> None:
    """Check that nbytes starting at offset lie inside a size-byte payload."""
    if not isinstance(offset, int) or offset < 0:
        raise ContainerFormatError(f"{path}: {what} has a bad offset {offset!r}")
    if offset + nbytes > size:
        raise ContainerFormatError(
            f"{path}: {what} at offset {offset} overruns the {size}-byte payload"
        )
