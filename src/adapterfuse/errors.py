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

