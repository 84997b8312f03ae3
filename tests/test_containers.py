"""Container framing: fuzzed readers and all-or-nothing writes."""

import gc
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    ChecksumError,
    ContainerFormatError,
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

from conftest import drop_header_key, make_library

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
