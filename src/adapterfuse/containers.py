"""Container framing, bounds checks and atomic writes for every file format.

ALIB framing (`.alib`): magic ``ALIB``, little-endian u16 version, u32
index length, the JSON index, then a payload whose length and CRC32 the
index records.  JSON-header-line framing (`.cpf`, `.truth`, `.emb`): a
JSON object tagged with its ``format``, a newline, then a payload.
Headers carry sorted keys, so equal inputs give equal bytes.  A header
``dtype`` must be the format's constant.  The format modules name their
own keys (require_keys) and arrays (read_array).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import ChecksumError, ContainerFormatError

ALIB_MAGIC = b"ALIB"
ALIB_VERSION = 1
_ALIB_PREFIX = struct.Struct("<4sHI")  # magic, version, index length


def atomic_write(path, chunks) -> None:
    """Write the byte chunks to path, all or nothing.

    They go to a unique temp file in the target directory, which is
    fsynced and renamed over path; on any failure it is removed and path
    is left as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    umask = os.umask(0)  # read the umask, to give the file the mode open() would
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def require_keys(header, keys: dict, path) -> list:
    """Values of the header keys, in order; a missing key is named.

    keys maps each key to the type its value must have; object leaves the
    check to read_array, the framing or a nested require_keys.
    """
    if not isinstance(header, dict):
        raise ContainerFormatError(f"{path}: expected a JSON object, got {header!r:.40}")
    for key, kind in keys.items():
        if key not in header:
            raise ContainerFormatError(f"{path}: header is missing {key!r}")
        if not isinstance(header[key], kind):
            raise ContainerFormatError(
                f"{path}: {key!r} is not {kind.__name__}: {header[key]!r:.40}"
            )
    return [header[key] for key in keys]


def read_array(payload, dtype: str, shape, offset, what: str, path) -> np.ndarray:
    """A read-only view of the dtype array of this shape at a payload offset.

    The shape must be non-negative ints and the span must lie in payload.
    """
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(n, int) and n >= 0 for n in shape
    ):
        raise ContainerFormatError(f"{path}: {what} has a bad shape {shape!r:.40}")
    if not isinstance(offset, int) or offset < 0:
        raise ContainerFormatError(f"{path}: {what} has a bad offset {offset!r:.40}")
    count = math.prod(shape)
    if offset + count * np.dtype(dtype).itemsize > len(payload):
        raise ContainerFormatError(
            f"{path}: {what} at offset {offset} overruns the {len(payload)}-byte "
            "payload (truncated or bad offset)"
        )
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape)


def require_end(payload, end: int, path) -> None:
    """Check that the arrays read from payload end exactly where it ends."""
    if end != len(payload):
        raise ContainerFormatError(
            f"{path}: payload is {len(payload)} bytes, its arrays end at {end} "
            f"({len(payload) - end} trailing bytes)"
        )


def _parse_header(blob, path, fmt, dtype) -> dict:
    try:
        header = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise ContainerFormatError(f"{path}: bad header json: {exc}") from None
    require_keys(header, {}, path)  # a JSON object
    if fmt is not None and header.get("format") != fmt:
        article = "an" if fmt[0] in "aeiou" else "a"
        raise ContainerFormatError(f"{path}: not {article} {fmt} container")
    if header.get("dtype", dtype) != dtype:
        raise ContainerFormatError(f"{path}: dtype {header['dtype']!r:.40} is not {dtype!r}")
    return header


def write_alib(path, index: dict, chunks) -> None:
    """Write an ALIB container whose payload is the concatenated chunks."""
    payload = b"".join(chunks)
    crc = zlib.crc32(payload)
    index = {**index, "payload_bytes": len(payload), "payload_crc32": crc}
    blob = json.dumps(index, sort_keys=True).encode("utf-8")
    prefix = _ALIB_PREFIX.pack(ALIB_MAGIC, ALIB_VERSION, len(blob))
    atomic_write(path, [prefix, blob, payload])


def read_alib(path, dtype: str) -> tuple:
    """(index, payload) of an ALIB container whose tensors are dtype."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != ALIB_MAGIC:
        raise ContainerFormatError(f"{path}: bad magic, not an adapter container")
    if len(data) < _ALIB_PREFIX.size:
        raise ContainerFormatError(f"{path}: truncated header")
    _, version, index_len = _ALIB_PREFIX.unpack_from(data)
    if version != ALIB_VERSION:
        raise ContainerFormatError(f"{path}: unsupported version {version}")
    start = _ALIB_PREFIX.size + index_len
    if len(data) < start:
        raise ContainerFormatError(f"{path}: truncated index")
    index = _parse_header(data[_ALIB_PREFIX.size : start], path, None, dtype)
    payload = memoryview(data)[start:]
    size, crc = require_keys(index, {"payload_bytes": int, "payload_crc32": int}, path)
    if len(payload) != size:
        raise ChecksumError(f"{path}: payload is {len(payload)} bytes, index says {size}")
    if zlib.crc32(payload) != crc:
        raise ChecksumError(f"{path}: payload checksum mismatch")
    return index, payload


def write_framed(path, header: dict, chunks) -> None:
    """Write a JSON header line, then the chunks as the payload."""
    atomic_write(path, [json.dumps(header, sort_keys=True).encode("utf-8") + b"\n", *chunks])


def read_framed(path, fmt: str, dtype: str) -> tuple:
    """(header, payload) of a JSON-header-line container tagged fmt."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    if end < 0:
        raise ContainerFormatError(f"{path}: truncated header, no end of line")
    return _parse_header(data[:end], path, fmt, dtype), memoryview(data)[end + 1 :]
