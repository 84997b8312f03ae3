"""Container framing: fuzzed readers and all-or-nothing writes."""

import gc
import json
import os
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    ChecksumError,
    ContainerFormatError,
    CPFactors,
    EmbeddingSet,
    cp_als,
    load_embeddings,
    load_factors,
    load_library,
    load_truth,
    save_embeddings,
    save_factors,
    save_library,
    save_truth,
)
from adapterfuse import containers
from adapterfuse.cli import main

from conftest import assert_same_bytes, drop_header_key, make_library

LOADERS = {
    "alib": load_library,
    "cpf": load_factors,
    "truth": load_truth,
    "emb": load_embeddings,
}
SAVERS = {
    "alib": lambda p: save_library(make_library(n_tasks=2, n_layers=1, d_in=3, d_out=2, rank=1), p),
    "cpf": lambda p: save_factors(cp_als(np.random.default_rng(0).standard_normal((3, 2, 2)), 1), p),
    "truth": lambda p: save_truth({"00": np.ones((2, 3)), "01": np.zeros((1, 2))}, p),
    "emb": lambda p: save_embeddings(EmbeddingSet(ids=("a", "b"), vectors=np.eye(2, 3)), p),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid(scratch):
    """One small valid file per format, as bytes."""
    blobs = {}
    for fmt, save in SAVERS.items():
        save(scratch / f"valid.{fmt}")
        blobs[fmt] = (scratch / f"valid.{fmt}").read_bytes()
    return blobs


def load_error(fmt, blob, path):
    """The ValueError that loading blob raises, or None when it loads.

    blob replaces path by rename, never by an in-place rewrite: the
    exception returned keeps the loaded mapping of the previous blob alive.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    try:
        LOADERS[fmt](path)
    except ValueError as exc:
        return exc
    return None


def header_end(fmt, blob):
    """Offset of the first byte after the header (index or header line)."""
    if fmt == "alib":
        return 10 + struct.unpack_from("<I", blob, 6)[0]
    return blob.index(b"\n") + 1


def header_json(fmt, blob):
    """Offsets of the header's JSON: the index, or the header line without its newline."""
    if fmt == "alib":
        return range(10, header_end(fmt, blob))
    return range(header_end(fmt, blob) - 1)


@pytest.mark.parametrize("fmt", LOADERS)
def test_valid_files_load(fmt, valid, scratch):
    assert load_error(fmt, valid[fmt], scratch / "f") is None


@pytest.mark.parametrize("fmt", LOADERS)
@given(blob=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_are_a_format_error(fmt, blob, scratch):
    assert isinstance(load_error(fmt, blob, scratch / "f"), ContainerFormatError)


@pytest.mark.parametrize("fmt", LOADERS)
@given(payload=st.binary(max_size=120))
@settings(max_examples=100, deadline=None)
def test_arbitrary_payload_loads_or_is_a_value_error(fmt, payload, valid, scratch):
    blob = valid[fmt]
    err = load_error(fmt, blob[: header_end(fmt, blob)] + payload, scratch / "f")
    assert isinstance(err, ChecksumError)


@pytest.mark.parametrize("fmt", LOADERS)
def test_every_truncation_is_a_format_error(fmt, valid, scratch):
    blob = valid[fmt]
    for n in range(len(blob)):
        err = load_error(fmt, blob[:n], scratch / "f")
        assert isinstance(err, ContainerFormatError), f"truncated to {n} bytes: {err!r}"


@pytest.mark.parametrize("fmt", LOADERS)
def test_every_bit_flip_loads_or_is_a_value_error(fmt, valid, scratch):
    # load_error lets anything but a ValueError escape; a flip outside the
    # header's JSON breaks the ALIB prefix, the header line's end or the
    # payload CRC, all framing faults
    blob = valid[fmt]
    header = header_json(fmt, blob)
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            err = load_error(fmt, bytes(flipped), scratch / "f")
            if i not in header:
                assert isinstance(err, ContainerFormatError), f"byte {i} bit {bit}: {err!r}"


@pytest.mark.parametrize("fmt", LOADERS)
def test_payload_byte_flip_is_a_checksum_error_and_exit_2(fmt, tmp_path, capsys):
    path = tmp_path / f"x.{fmt}"
    SAVERS[fmt](path)
    flipped = bytearray(path.read_bytes())
    flipped[-1] ^= 1
    path.write_bytes(flipped)  # nothing has it loaded
    with pytest.raises(ChecksumError, match="payload checksum mismatch"):
        LOADERS[fmt](path)
    argv = reading_command(fmt, path, tmp_path)
    if argv is not None:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: payload checksum mismatch\n"


DTYPES = {"cpf": "<f4", "truth": "<f8", "emb": "<f4"}  # the header-line formats


def with_layout(blob, edit, extra=b""):
    """A header-line container blob with edit(header) applied and extra
    appended to its payload; its checksum still holds, so only the layout
    can be at fault."""
    line, payload = blob.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    payload += extra
    header.update(payload_bytes=len(payload), payload_crc32=zlib.crc32(payload))
    return json.dumps(header).encode() + b"\n" + payload


def set_first_dim(value):
    return lambda h: h["shapes"][0].__setitem__(0, value)


@pytest.mark.parametrize("fmt", DTYPES)
@pytest.mark.parametrize("edit, extra, message", [
    (lambda h: h.pop("shapes"), b"", "header is missing 'shapes'"),
    (lambda h: h.pop("dtype"), b"", "header is missing 'dtype'"),
    (lambda h: h.update(shapes={"0": [1]}), b"", "'shapes' is not list"),
    (lambda h: h["shapes"].__setitem__(0, 2), b"", "array 0 has a bad shape 2"),
    (set_first_dim(-1), b"", r"array 0 has a bad shape \[-1"),
    (set_first_dim(1.0), b"", r"array 0 has a bad shape \[1.0"),
    (set_first_dim("1"), b"", r"array 0 has a bad shape \['1'"),
    (lambda h: h["shapes"].__setitem__(0, [0, 2**70]), b"", r"array 0 has a bad shape \[0, "),
    (lambda h: h["shapes"][-1].__setitem__(0, h["shapes"][-1][0] + 1), b"",
     "overruns the"),
    (lambda h: h["shapes"].append([1]), b"", "overruns the"),
    (lambda h: None, b"\x00", r"its arrays end at \d+ \(1 trailing bytes\)"),
], ids=["no-shapes", "no-dtype", "shapes-dict", "shape-int", "dim-negative", "dim-float",
        "dim-str", "dim-beyond-numpy", "shape-overruns", "extra-shape", "trailing-byte"])
def test_layout_fault_is_a_format_error(fmt, edit, extra, message, valid, scratch):
    path = scratch / "f"
    err = load_error(fmt, with_layout(valid[fmt], edit, extra), path)
    assert isinstance(err, ContainerFormatError) and not isinstance(err, ChecksumError)
    assert str(err).startswith(f"{path}: ")
    assert re.search(message, str(err)[len(str(path)) :]), err


def save_drawn(fmt, sizes, path):
    """Save a fmt file whose array sizes come from sizes (each 0-4); return
    the arrays its payload must hold and those its loader returns."""
    rng = np.random.default_rng(sizes)
    if fmt == "cpf":
        R, n, d_in, d_out = sizes[0] + 1, *sizes[1:4]
        f = CPFactors(R, rng.random(R), *(rng.standard_normal((d, R)) for d in (n, d_in, d_out)))
        save_factors(f, path)
        g = load_factors(path)
        return [f.lam, f.a_task, f.b_row, f.c_col], [g.lam, g.a_task, g.b_row, g.c_col]
    if fmt == "emb":
        ids = [f"s{i}" for i in range(sizes[0])]
        e = EmbeddingSet(ids=ids, vectors=rng.standard_normal(sizes[:2]))
        save_embeddings(e, path)
        return [e.vectors], [load_embeddings(path).vectors]
    sums = {f"{i:02d}": rng.standard_normal(sizes[i : i + 2]) for i in range(len(sizes) - 1)}
    save_truth(sums, path)
    return list(sums.values()), list(load_truth(path).values())


@pytest.mark.parametrize("fmt", DTYPES)
@given(sizes=st.lists(st.integers(0, 4), min_size=4, max_size=6))
@settings(max_examples=60, deadline=None)
def test_round_trip_is_byte_exact_with_aligned_views(fmt, sizes, scratch):
    path = scratch / f"drawn.{fmt}"
    written, loaded = save_drawn(fmt, sizes, path)
    want = [np.asarray(arr, dtype=DTYPES[fmt]) for arr in written]
    blob = path.read_bytes()
    assert blob[blob.index(b"\n") + 1 :] == b"".join(arr.tobytes() for arr in want)
    header, views = containers.read_framed(path, fmt, DTYPES[fmt])
    assert header["dtype"] == DTYPES[fmt] and header["shapes"] == [list(w.shape) for w in want]
    for view, w, got in zip(views, want, loaded, strict=True):
        assert_same_bytes(view, w)
        assert view.flags.aligned and not view.flags.writeable and not view.flags.owndata
        np.testing.assert_array_equal(got, w)
        assert fmt == "cpf" or not got.flags.writeable  # cpf widens to float64


@pytest.mark.parametrize("key", ["payload_bytes", "payload_crc32"])
@pytest.mark.parametrize("fmt", [fmt for fmt in LOADERS if fmt != "alib"])
def test_header_without_its_checksum_is_refused(fmt, key, tmp_path):
    # files written before the header-line formats carried a checksum
    path = tmp_path / f"x.{fmt}"
    SAVERS[fmt](path)
    drop_header_key(path, key)
    with pytest.raises(ContainerFormatError, match=f"header is missing '{key}'"):
        LOADERS[fmt](path)


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "x.alib"
    target.write_bytes(b"old contents")

    def replace_fails(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(containers.os, "replace", replace_fails)
    with pytest.raises(OSError, match="simulated"):
        save_library(make_library(), target)
    assert target.read_bytes() == b"old contents"
    assert [f.name for f in tmp_path.iterdir()] == ["x.alib"]


def test_written_file_gets_the_mode_open_would_give(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    containers.atomic_write(tmp_path / "x", [b"data"])
    assert (tmp_path / "x").stat().st_mode & 0o777 == 0o666 & ~umask


def test_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # setting the umask to read it would leave other threads' files unmasked
    # for a moment; the kernel applies it to the temp file's creation instead
    umask = 0o027
    before = os.umask(umask)
    try:
        def umask_fails(mask):
            raise AssertionError("atomic_write set the umask")

        monkeypatch.setattr(os, "umask", umask_fails)
        containers.atomic_write(tmp_path / "x", [b"data"])
    finally:
        monkeypatch.undo()
        os.umask(before)
    assert (tmp_path / "x").stat().st_mode & 0o777 == 0o666 & ~umask == 0o640
    assert [f.name for f in tmp_path.iterdir()] == ["x"]


def reading_command(fmt, path, tmp_path):
    """argv of a subcommand that reads path as a fmt file, or None for .cpf:
    no subcommand reads a .cpf it did not just write."""
    lib = tmp_path / "lib.alib"
    SAVERS["alib"](lib)
    return {
        "alib": ["interfere", "--library", str(path), "--k", "1", "--cp-rank", "1"],
        "truth": ["merge", "--library", str(lib), "--method", "uniform",
                  "--out", str(tmp_path / "m.alib"), "--truth", str(path)],
        "emb": ["cluster", "--embeddings", str(path), "--manifest", str(tmp_path / "m.jsonl"),
                "--k", "1", "--out-dir", str(tmp_path / "out")],
    }.get(fmt)


@pytest.mark.parametrize("fmt", LOADERS)
def test_empty_file_is_a_format_error_and_exit_2(fmt, tmp_path, capsys):
    # mmap refuses an empty file; the reader must still name the format fault
    empty = tmp_path / f"empty.{fmt}"
    empty.write_bytes(b"")
    with pytest.raises(ContainerFormatError):
        LOADERS[fmt](empty)
    argv = reading_command(fmt, empty, tmp_path)
    if argv is not None:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {empty}: ")
        assert not (tmp_path / "m.alib").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fmt", LOADERS)
def test_loads_leave_no_open_file(fmt, tmp_path):
    # a loaded object's arrays are views of a mapping, which holds a duplicate
    # of the file's descriptor until the last view is freed; with the cycle
    # collector off, a mapping caught in a reference cycle would stay open
    path = tmp_path / f"x.{fmt}"
    SAVERS[fmt](path)
    gc.collect()  # mappings earlier tests left in cycles
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            LOADERS[fmt](path)
        after = len(os.listdir("/proc/self/fd"))
    finally:
        gc.enable()
    assert after == before
