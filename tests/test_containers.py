"""Container framing: fuzzed readers and all-or-nothing writes."""

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

from conftest import make_library

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
    """The ValueError that loading blob raises, or None when it loads."""
    path.write_bytes(blob)
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
    if fmt == "alib":
        assert isinstance(err, ChecksumError)


@pytest.mark.parametrize("fmt", LOADERS)
def test_every_truncation_is_a_format_error(fmt, valid, scratch):
    blob = valid[fmt]
    for n in range(len(blob)):
        err = load_error(fmt, blob[:n], scratch / "f")
        assert isinstance(err, ContainerFormatError), f"truncated to {n} bytes: {err!r}"


@pytest.mark.parametrize("fmt", LOADERS)
def test_every_bit_flip_loads_or_is_a_value_error(fmt, valid, scratch):
    # load_error lets anything but a ValueError escape; an ALIB flip outside
    # the index breaks the prefix or the payload CRC, both framing faults
    blob = valid[fmt]
    index = range(10, header_end(fmt, blob))
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            err = load_error(fmt, bytes(flipped), scratch / "f")
            if fmt == "alib" and i not in index:
                assert isinstance(err, ContainerFormatError), f"byte {i} bit {bit}: {err!r}"


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
