"""Container framing, bounds checks and atomic writes for every file format.

ALIB framing (`.alib`): magic ``ALIB``, little-endian u16 version, u32
index length, the JSON index, then a payload.  JSON-header-line framing
(`.cpf`, `.truth`, `.emb`): a JSON object tagged with its ``format``, a
newline, then a payload.  Every header (the ALIB index included)
records its payload's length and CRC32 (``payload_bytes``,
``payload_crc32``), and every reader checks both, on the mapping, before
it reads an array; a header without them is refused, so files written
before the header-line formats carried them must be written again.
Headers carry sorted keys, so equal inputs give equal bytes, and end
in space padding (which JSON ignores) so the payload starts at a
64-byte file offset and its arrays load as aligned views.  A header
``dtype`` must be the format's constant.  A header-line payload is
its arrays back to back, with the ``shapes`` its header lists
(write_framed, read_framed), so the format modules name only their other
keys (require_keys); the ALIB index gives each tensor an offset, so that
a tensor shared by many entries is stored once (adapter_io, read_array).

Readers map the file read-only (mmap) instead of reading it: the checks
run on the mapping, and every array loaded from the payload is a view
of it, so a loaded file costs no heap copy and the mapping lives as long
as some view of it does.  Its pages count in a process's RSS, but as
clean page-cache pages the kernel can drop, not as a private copy.  A
file must therefore be replaced by rename while something reads it, as
atomic_write does, never rewritten in place: an in-place rewrite can
change what a loaded object holds after its checksum was checked, or
end the process with SIGBUS when the file shrinks.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
import zlib

import numpy as np

from .errors import ChecksumError, ContainerFormatError
from .tensor_core import all_finite

ALIB_MAGIC = b"ALIB"
ALIB_VERSION = 1
_ALIB_PREFIX = struct.Struct("<4sHI")  # magic, version, index length
PAYLOAD_ALIGN = 64  # writers pad headers so payloads start at a multiple of this


def atomic_write(path, chunks) -> None:
    """Write the byte chunks to path, all or nothing.

    They go to a temp file of a new random name in the target directory,
    created with mode 0o666 less the umask, as open() would make path;
    it is fsynced and renamed over path.  On any failure it is removed
    and path is left as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    while True:
        tmp = os.path.join(directory, f"{name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def as_float32(x, what: str) -> np.ndarray:
    """Finite x as a C-contiguous little-endian float32 array, for a payload.

    An entry beyond the float32 range raises a ValueError naming `what`,
    before any byte is written.
    """
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(x, dtype="<f4")
        fits = all_finite(arr)  # x is finite: else the cast overflowed
    if not fits:
        raise ValueError(f"{what} exceeds the float32 range")
    return arr


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
    """A read-only, aligned array of this dtype and shape at a payload offset.

    The shape must be non-negative ints and the span must lie in payload.
    It is a view of payload when that is aligned for the dtype, as in
    every file written with padded headers (_padded); otherwise a copy,
    since numpy runs slow unaligned loops on every use of an unaligned
    view.
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
    try:
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape)
    except ValueError as exc:  # a zero-size shape with a dimension numpy cannot hold
        raise ContainerFormatError(f"{path}: {what} has a bad shape {shape!r:.40}: {exc}") from None
    if not arr.flags.aligned:  # written before headers were padded
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


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


def _padded(blob: bytes, start: int, end: bytes = b"") -> bytes:
    """blob + spaces + end, so that what follows it starts on a PAYLOAD_ALIGN boundary.

    JSON ignores the spaces; the payload's arrays then load as aligned views.
    """
    pad = -(start + len(blob) + len(end)) % PAYLOAD_ALIGN
    return blob + b" " * pad + end


def _with_checksum(header: dict, chunks) -> dict:
    """header plus the length and CRC32 of the chunks' payload; the chunks (bytes
    or C-contiguous arrays) are checksummed one by one, never joined."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    size = sum(memoryview(chunk).nbytes for chunk in chunks)
    return {**header, "payload_bytes": size, "payload_crc32": crc}


def _check_payload(header: dict, payload, path) -> None:
    """Check payload against the length and CRC32 its header records."""
    size, crc = require_keys(header, {"payload_bytes": int, "payload_crc32": int}, path)
    if len(payload) != size:
        raise ChecksumError(f"{path}: payload is {len(payload)} bytes, header says {size}")
    if zlib.crc32(payload) != crc:
        raise ChecksumError(f"{path}: payload checksum mismatch")


def write_alib(path, index: dict, chunks) -> None:
    """Write an ALIB container whose payload is the concatenated chunks."""
    chunks = list(chunks)
    index = _with_checksum(index, chunks)
    blob = _padded(json.dumps(index, sort_keys=True).encode("utf-8"), _ALIB_PREFIX.size)
    prefix = _ALIB_PREFIX.pack(ALIB_MAGIC, ALIB_VERSION, len(blob))
    atomic_write(path, [prefix, blob, *chunks])


def _map(path):
    """The file's bytes as a read-only mapping, or b"" for an empty file
    (which mmap refuses to map); a directory is an OSError, as for open."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def read_alib(path, dtype: str) -> tuple:
    """(index, payload) of an ALIB container whose tensors are dtype; the
    payload is a view of the file's read-only mapping (_map)."""
    data = _map(path)
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
    _check_payload(index, payload, path)
    return index, payload


def write_framed(path, header: dict, dtype: str, arrays) -> None:
    """Write a JSON header line, then the arrays as dtype, back to back;
    the header records dtype and the arrays' shapes."""
    arrays = [np.asarray(arr, dtype=dtype, order="C") for arr in arrays]
    header = {**header, "dtype": dtype, "shapes": [list(arr.shape) for arr in arrays]}
    header = _with_checksum(header, arrays)
    line = _padded(json.dumps(header, sort_keys=True).encode("utf-8"), 0, b"\n")
    atomic_write(path, [line, *arrays])


def read_framed(path, fmt: str, dtype: str) -> tuple:
    """(header, arrays) of a JSON-header-line container tagged fmt.

    The arrays lie back to back in the payload with the header's shapes,
    and must end where it ends; each is a read-only view of the file's
    mapping (_map, read_array).
    """
    data = _map(path)
    end = data.find(b"\n")
    if end < 0:
        raise ContainerFormatError(f"{path}: truncated header, no end of line")
    header, payload = _parse_header(data[:end], path, fmt, dtype), memoryview(data)[end + 1 :]
    _check_payload(header, payload, path)
    shapes, _ = require_keys(header, {"shapes": list, "dtype": object}, path)
    arrays, offset = [], 0
    for i, shape in enumerate(shapes):
        arrays.append(read_array(payload, dtype, shape, offset, f"array {i}", path))
        offset += arrays[-1].nbytes
    if offset != len(payload):
        raise ContainerFormatError(
            f"{path}: payload is {len(payload)} bytes, its arrays end at {offset} "
            f"({len(payload) - offset} trailing bytes)"
        )
    return header, arrays
