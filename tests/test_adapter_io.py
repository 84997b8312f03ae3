"""Adapter container: round trips, corruption handling, the one file format."""

import json
import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from adapterfuse import (
    AdapterDelta,
    AdapterLibrary,
    ChecksumError,
    ContainerFormatError,
    SchemaError,
    export_merged,
    load_library,
    save_library,
)
from adapterfuse import adapter_io
from adapterfuse.adapter_io import stored_bytes
from adapterfuse.cli import main
from adapterfuse.containers import ALIB_MAGIC, ALIB_VERSION, PAYLOAD_ALIGN, write_alib
from adapterfuse.cp_decomposition import AlsOptions, cp_als_factored
from adapterfuse.interference import layer_profile
from adapterfuse.merge_ops import METHODS, MergeConfig, merge_library
from adapterfuse.synth import PlantedSpec, gen_planted_library

from conftest import assert_same_bytes, edit_alib_index, make_library


class TestAdapterDelta:
    def test_materialize(self, rng):
        a, b = rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
        d = AdapterDelta(layer_id="00", a=a, b=b, scaling_s=2.0)
        np.testing.assert_allclose(d.materialize(), 2.0 * a @ b.T, atol=1e-15)
        assert d.d_in == 5 and d.d_out == 4 and d.rank == 2

    @pytest.mark.parametrize("b", [np.eye(5), np.diag([1.0, 1.0, 2.0, 1.0, 1.0]),
                                   np.where(np.eye(5) == 1, 1.0, -0.0)],
                             ids=["identity", "not-identity", "identity-signed-zeros"])
    @pytest.mark.parametrize("s", [1.0, 2.5])
    def test_materialize_bytes_match_the_matmul(self, rng, b, s):
        a = rng.standard_normal((6, 5))
        a[0] = -0.0
        a[1, 2] = -0.0
        a[2] = -rng.random(5)  # every other product in the row is −0.0 too
        a[2, 3] = -0.0
        d = AdapterDelta(layer_id="00", a=a, b=b, scaling_s=s)
        assert d.materialize().tobytes() == (s * (a @ b.T)).tobytes()

    def test_validation(self, rng):
        a, b = rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="rank"):
            AdapterDelta(layer_id="x", a=a, b=rng.standard_normal((4, 3)))
        with pytest.raises(ValueError):
            AdapterDelta(layer_id="x", a=rng.standard_normal(5), b=b)
        with pytest.raises(ValueError):
            AdapterDelta(layer_id="x", a=np.zeros((5, 0)), b=np.zeros((4, 0)))
        with pytest.raises(ValueError, match="non-finite"):
            AdapterDelta(layer_id="x", a=np.full((2, 1), np.nan), b=np.ones((2, 1)))
        with pytest.raises(ValueError, match="scaling_s"):
            AdapterDelta(layer_id="x", a=a, b=b, scaling_s=0.5)
        for s in (np.inf, np.nan):
            with pytest.raises(ValueError, match="scaling_s"):
                AdapterDelta(layer_id="x", a=a, b=b, scaling_s=s)


class TestAdapterLibrary:
    def test_id_coercion(self, rng):
        d = AdapterDelta(layer_id="0", a=rng.standard_normal((3, 1)),
                         b=rng.standard_normal((3, 1)))
        lib = AdapterLibrary(tasks=(7,), layers=(0,), deltas={("7", "0"): d})
        assert lib.tasks == ("7",) and lib.layers == ("0",)
        assert lib.deltas[(lib.tasks[0], lib.layers[0])] is d

    def test_missing_pair_listed(self, rng):
        d = AdapterDelta(layer_id="00", a=rng.standard_normal((3, 1)),
                         b=rng.standard_normal((3, 1)))
        with pytest.raises(SchemaError, match=r"\('1', '00'\)"):
            AdapterLibrary(tasks=("0", "1"), layers=("00",), deltas={("0", "00"): d})

    def test_inconsistent_layer_shape(self, rng):
        deltas = {
            ("0", "00"): AdapterDelta(layer_id="00", a=rng.standard_normal((3, 1)),
                                      b=rng.standard_normal((4, 1))),
            ("1", "00"): AdapterDelta(layer_id="00", a=rng.standard_normal((3, 1)),
                                      b=rng.standard_normal((5, 1))),
        }
        with pytest.raises(SchemaError, match="inconsistent"):
            AdapterLibrary(tasks=("0", "1"), layers=("00",), deltas=deltas)


class TestSingleFileContainer:
    def test_round_trip(self, tmp_path):
        lib = make_library(seed=3, scaling=1.25)
        lib.meta["origin"] = "unit-test"
        p = tmp_path / "lib.alib"
        save_library(lib, p)
        back = load_library(p)
        assert back.tasks == lib.tasks and back.layers == lib.layers
        assert back.meta == {"origin": "unit-test"}
        for key, d in lib.deltas.items():
            bd = back.deltas[key]
            assert bd.scaling_s == 1.25  # repr round trip is exact
            np.testing.assert_array_equal(bd.a, d.a.astype(np.float32))
            for f in (bd.a, bd.b):  # float32 as stored, a read-only view
                assert f.dtype == np.float32 and not f.flags.writeable

    def test_scaling_repr_survives(self, tmp_path, rng):
        # 1.1 has no exact binary form; repr must still round trip the double
        d = AdapterDelta(layer_id="00", a=rng.standard_normal((3, 1)),
                         b=rng.standard_normal((3, 1)), scaling_s=1.1)
        lib = AdapterLibrary(tasks=("t",), layers=("00",), deltas={("t", "00"): d})
        p = tmp_path / "x.alib"
        save_library(lib, p)
        assert load_library(p).deltas[("t", "00")].scaling_s == 1.1

    def test_saves_are_byte_identical(self, tmp_path):
        lib = make_library(seed=5)
        p1, p2 = tmp_path / "a.alib", tmp_path / "b.alib"
        save_library(lib, p1)
        save_library(lib, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_tmp_file_left_behind(self, tmp_path):
        save_library(make_library(), tmp_path / "x.alib")
        assert [f.name for f in tmp_path.iterdir()] == ["x.alib"]


class TestCorruption:
    def saved(self, tmp_path):
        p = tmp_path / "lib.alib"
        save_library(make_library(seed=1), p)
        return p

    def test_bad_magic(self, tmp_path):
        p = self.saved(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*magic"):
            load_library(p)

    def test_unsupported_version(self, tmp_path):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[4:6] = struct.pack("<H", ALIB_VERSION + 1)
        p.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*version"):
            load_library(p)

    def test_truncated_header_and_index(self, tmp_path):
        p = self.saved(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:5])
        with pytest.raises(ContainerFormatError):
            load_library(p)
        p.write_bytes(blob[:8])
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*truncated"):
            load_library(p)
        p.write_bytes(blob[:30])
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*truncated index"):
            load_library(p)

    def test_bad_index_json(self, tmp_path):
        junk = b"{broken"
        p = tmp_path / "x.alib"
        p.write_bytes(ALIB_MAGIC + struct.pack("<H", ALIB_VERSION)
                      + struct.pack("<I", len(junk)) + junk)
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*json"):
            load_library(p)

    @pytest.mark.parametrize("junk", [b"[]", b'{"\xff": 1}', b"[" * 100_000],
                             ids=["array", "not-utf8", "too-deep"])
    def test_index_not_a_json_object(self, junk, tmp_path):
        p = tmp_path / "x.alib"
        p.write_bytes(ALIB_MAGIC + struct.pack("<HI", ALIB_VERSION, len(junk)) + junk)
        with pytest.raises(ContainerFormatError, match=r"(?i)\.alib: .*json"):
            load_library(p)

    @pytest.mark.parametrize("edit", [
        lambda index: {**index, "dtype": "nonsense"},
        lambda index: {**index, "dtype": "<i4"},
        lambda index: {**index, "tasks": 5},
        lambda index: {**index, "meta": 5},
        lambda index: {**index, "entries": [{**index["entries"][0], "s": [1]}]},
        lambda index: {**index, "entries": [{**index["entries"][0], "s": "abc"},
                                            *index["entries"][1:]]},
    ], ids=["dtype-nonsense", "dtype-i4", "tasks-int", "meta-int", "scaling-list",
            "scaling-not-a-number"])
    def test_bad_index_value_rejected(self, edit, tmp_path):
        p = self.saved(tmp_path)
        edit_alib_index(p, edit)
        with pytest.raises(ContainerFormatError):
            load_library(p)

    @pytest.mark.parametrize("edit,message", [
        (lambda index: {**index, "tasks": ["0", "0", "2"]}, "duplicate task ids"),
        (lambda index: {**index, "layers": ["00", "00"]}, "duplicate layer ids"),
        (lambda index: {**index, "tasks": ["0", "1"]}, r"outside .*\('2', '00'\)"),
    ], ids=["repeated-task", "repeated-layer", "unlisted-task"])
    def test_index_ids_off_the_entry_grid_rejected(self, edit, message, tmp_path):
        # every listed (task, layer) still has an entry, so only the
        # uniqueness and grid checks catch these
        p = self.saved(tmp_path)
        edit_alib_index(p, edit)
        with pytest.raises(SchemaError, match=message):
            load_library(p)

    def test_non_numeric_scaling_names_file_and_entry(self, tmp_path):
        p = self.saved(tmp_path)
        edit_alib_index(p, lambda index: {**index, "entries": [
            *index["entries"][:1], {**index["entries"][1], "s": "abc"}, *index["entries"][2:]]})
        with pytest.raises(ContainerFormatError, match=re.escape(f"{p}: entry (0, 01)") + ".*'abc'"):
            load_library(p)

    def test_infinite_scaling_rejected(self, tmp_path):
        p = self.saved(tmp_path)
        edit_alib_index(p, lambda index: {**index, "entries": [
            {**index["entries"][0], "s": "inf"}, *index["entries"][1:]]})
        with pytest.raises(ValueError, match="scaling_s"):
            load_library(p)

    def test_short_payload(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(ChecksumError):
            load_library(p)

    def test_flipped_payload_byte(self, tmp_path):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[-1] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError, match="checksum"):
            load_library(p)

    def write_index(self, tmp_path, index, payload):
        p = tmp_path / "crafted.alib"
        write_alib(p, index, [payload])
        return p

    def crafted_index(self, payload, entries):
        return {
            "tasks": ["t"],
            "layers": ["00"],
            "dtype": "<f4",
            "entries": entries,
            "payload_bytes": len(payload),
            "payload_crc32": zlib.crc32(payload),
            "meta": {},
        }

    def test_tensor_overruns_payload(self, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        entries = [{"task": "t", "layer": "00", "s": "1.0",
                    "a": {"shape": [2, 1], "offset": 0},
                    "b": {"shape": [2, 1], "offset": 12}}]
        p = self.write_index(tmp_path, self.crafted_index(payload, entries), payload)
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*overruns"):
            load_library(p)

    def valid_entry(self):
        return {"task": "t", "layer": "00", "s": "1.0",
                "a": {"shape": [2, 1], "offset": 0},
                "b": {"shape": [2, 1], "offset": 8}}

    @pytest.mark.parametrize("key", ["entries", "tasks", "layers"])
    def test_missing_index_key_named(self, key, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        index = self.crafted_index(payload, [self.valid_entry()])
        del index[key]
        p = self.write_index(tmp_path, index, payload)
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_library(p)

    @pytest.mark.parametrize("key", ["task", "layer", "s", "a", "b"])
    def test_missing_entry_key_named(self, key, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        rec = self.valid_entry()
        del rec[key]
        p = self.write_index(tmp_path, self.crafted_index(payload, [rec]), payload)
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_library(p)

    @pytest.mark.parametrize("spec", [
        {"shape": [2, 1], "offset": -4},
        {"shape": [2, 1], "offset": "0"},
        {"shape": [2, 1]},
        {"shape": [-2, -1], "offset": 0},
        7,
    ])
    def test_bad_tensor_spec_rejected(self, spec, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        rec = self.valid_entry()
        rec["b"] = spec
        p = self.write_index(tmp_path, self.crafted_index(payload, [rec]), payload)
        with pytest.raises(ContainerFormatError):
            load_library(p)

    def test_non_finite_tensor_named(self, tmp_path):
        payload = np.array([1.0, 2.0, 0.5, np.inf], dtype="<f4").tobytes()
        p = self.write_index(tmp_path, self.crafted_index(payload, [self.valid_entry()]),
                             payload)
        with pytest.raises(ValueError, match=re.escape("tensor b of (t, 00) has non-finite")):
            load_library(p)

    def test_duplicate_entry(self, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        rec = {"task": "t", "layer": "00", "s": "1.0",
               "a": {"shape": [2, 1], "offset": 0},
               "b": {"shape": [2, 1], "offset": 8}}
        p = self.write_index(tmp_path, self.crafted_index(payload, [rec, rec]), payload)
        with pytest.raises(ContainerFormatError, match=r"\.alib: .*duplicate"):
            load_library(p)


class TestDirectoryPath:
    def test_directory_is_an_os_error(self, tmp_path, capsys):
        # the one format is a file: a directory fails as open() fails on it
        with pytest.raises(OSError):
            load_library(tmp_path)
        assert main(["interfere", "--library", str(tmp_path), "--k", "1",
                     "--cp-rank", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExportMerged:
    def test_round_trip(self, tmp_path, rng):
        merged = {"00": rng.standard_normal((4, 5)).astype(np.float32).astype(np.float64),
                  "01": rng.standard_normal((4, 5)).astype(np.float32).astype(np.float64)}
        p = tmp_path / "merged.alib"
        export_merged(merged, p, meta={"method": "uniform"})
        lib = load_library(p)
        assert lib.tasks == ("merged",)
        assert lib.meta == {"method": "uniform"}
        for layer, m in merged.items():
            np.testing.assert_array_equal(
                lib.deltas[("merged", layer)].materialize(), m)

    def test_pairs_as_they_arrive_write_the_bytes_of_the_mapping(self, tmp_path, rng):
        merged = {"00": rng.standard_normal((4, 5)), "01": rng.standard_normal((3, 5))}
        p, q = tmp_path / "dict.alib", tmp_path / "pairs.alib"
        export_merged(merged, p, meta={"method": "uniform"})
        export_merged((pair for pair in merged.items()), q, meta={"method": "uniform"})
        assert q.read_bytes() == p.read_bytes()
        with pytest.raises(ValueError, match="layer '00' is given twice"):
            export_merged([("00", merged["00"]), ("00", merged["00"])], tmp_path / "x.alib")

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            export_merged({"00": np.zeros(3)}, tmp_path / "x.alib")

    @pytest.mark.filterwarnings("error")
    def test_beyond_float32_is_stored_with_a_power_of_two_scale(self, tmp_path, rng):
        # A = Δ·2⁻ᵉ with s = 2ᵉ: exact, so A holds Δ to float32 rounding; a layer
        # in range keeps s = 1 and the bytes it had alone
        big, small = rng.standard_normal((4, 3)) * 1e300, rng.standard_normal((4, 3))
        p, q = tmp_path / "x.alib", tmp_path / "y.alib"
        export_merged({"00": big, "01": small}, p)
        export_merged({"01": small}, q)
        lib = load_library(p)
        d, kept = lib.deltas[("merged", "00")], lib.deltas[("merged", "01")]
        assert math.frexp(d.scaling_s)[0] == 0.5 and d.scaling_s > 1.0
        assert np.max(np.abs(d.a)) < 2.0 ** 127
        np.testing.assert_allclose(d.materialize(), big, rtol=2.0 ** -23, atol=0)
        assert kept.scaling_s == 1.0
        np.testing.assert_array_equal(kept.a, load_library(q).deltas[("merged", "01")].a)

    @pytest.mark.filterwarnings("error")
    def test_save_library_beyond_float32_is_rejected_before_writing(self, tmp_path):
        # a finite float64 factor that float32 cannot hold would load as inf
        p = tmp_path / "x.alib"
        big = AdapterLibrary(tasks=("0", "1"), layers=("00",), deltas={
            ("0", "00"): AdapterDelta("00", np.ones((3, 1)), np.ones((2, 1))),
            ("1", "00"): AdapterDelta("00", np.ones((3, 1)), np.array([[-1e39], [1.0]]))})
        with pytest.raises(ValueError, match=r"delta \(1, 00\): factor b exceeds"):
            save_library(big, p)
        assert not p.exists()


def payload_start(path) -> int:
    return 10 + struct.unpack_from("<I", path.read_bytes(), 6)[0]


def widened(lib) -> AdapterLibrary:
    """The library with every factor copied to float64."""
    return AdapterLibrary(lib.tasks, lib.layers, {
        key: AdapterDelta(d.layer_id, d.a.astype(np.float64), d.b.astype(np.float64),
                          d.scaling_s)
        for key, d in lib.deltas.items()})


def resident_libraries(tmp_path):
    """(id, loaded float32-resident library): factored with s ≠ 1, dense-stored
    (B = I) with s = 1 and s ≠ 1."""
    factored = make_library(n_tasks=3, n_layers=2, d_in=9, d_out=7, rank=2, seed=5,
                            scaling=1.25)
    noisy, _ = gen_planted_library(PlantedSpec(n_tasks=3, d_in=10, d_out=8, rank_shared=1,
                                               rank_specific=1, noise_sigma=0.05, seed=2,
                                               n_layers=2))
    scaled = AdapterLibrary(noisy.tasks, noisy.layers, {
        key: AdapterDelta(d.layer_id, d.a, d.b, 1.5) for key, d in noisy.deltas.items()})
    out = []
    for name, lib in (("factored", factored), ("dense", noisy), ("dense-scaled", scaled)):
        p = tmp_path / f"{name}.alib"
        save_library(lib, p)
        out.append((name, load_library(p)))
    return out


class TestFloat32Factors:
    """Loaded factors stay float32; every consumer widens them to the same bytes."""

    def test_payload_aligned_and_factors_are_readonly_float32(self, tmp_path):
        for _, lib in resident_libraries(tmp_path):
            for d in lib.deltas.values():
                for f in (d.a, d.b):
                    assert f.dtype == np.float32
                    assert f.flags.aligned and not f.flags.writeable
        for p in tmp_path.glob("*.alib"):
            assert payload_start(p) % PAYLOAD_ALIGN == 0

    def test_legacy_unpadded_file_loads_aligned_copies(self, tmp_path):
        p = tmp_path / "lib.alib"
        save_library(make_library(seed=2, scaling=1.5), p)
        want = load_library(p)
        # rewrite the index unpadded, one byte longer each time, until the
        # payload sits off every float32 boundary
        pad = ""
        while payload_start(p) % 4 == 0:
            pad += " "
            edit_alib_index(p, lambda index: {**index, "meta": {"pad": pad}})
        back = load_library(p)
        for key, d in want.deltas.items():
            for got, exp in ((back.deltas[key].a, d.a), (back.deltas[key].b, d.b)):
                assert_same_bytes(got, exp)
                assert got.flags.aligned and not got.flags.writeable

    def test_materialize(self, tmp_path):
        for _, lib in resident_libraries(tmp_path):
            for key, d in widened(lib).deltas.items():
                assert_same_bytes(lib.deltas[key].materialize(), d.materialize())
                out = np.empty((d.d_in, d.d_out))
                assert_same_bytes(lib.deltas[key].materialize(out=out), d.materialize())

    @pytest.mark.parametrize("method", METHODS)
    def test_merge_library(self, method, tmp_path):
        cfg = MergeConfig(method=method, cp_rank=2, k_density=0.3, dare_p=0.4, seed=3)
        for _, lib in resident_libraries(tmp_path):
            got, want = merge_library(lib, cfg), merge_library(widened(lib), cfg)
            for layer in lib.layers:
                assert_same_bytes(got[layer], want[layer])

    def test_layer_profile(self, tmp_path):
        for _, lib in resident_libraries(tmp_path):
            assert layer_profile(lib, k=1, R=2) == layer_profile(widened(lib), k=1, R=2)

    def test_cp_fit(self, tmp_path):
        for _, lib in resident_libraries(tmp_path):
            wide = widened(lib)
            for layer in lib.layers:
                got, want = (cp_als_factored([x.deltas[(t, layer)] for t in x.tasks], 2,
                                             AlsOptions(seed=1)) for x in (lib, wide))
                for name in ("lam", "a_task", "b_row", "c_col"):
                    assert_same_bytes(getattr(got, name), getattr(want, name))

    def test_compress_command(self, tmp_path, monkeypatch, capsys):
        for name, lib in resident_libraries(tmp_path):
            outputs = []
            for side in (lib, widened(lib)):
                monkeypatch.setattr("adapterfuse.cli.load_library", lambda path, side=side: side)
                out = tmp_path / f"{name}-{len(outputs)}"
                assert main(["compress", "--library", "unused", "--cp-rank", "2",
                             "--task", "1", "--out", str(out)]) == 0
                text = capsys.readouterr().out.replace(str(out), "OUT")
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                outputs.append((text, files))
            assert outputs[0] == outputs[1]

    def test_save_writes_the_views_without_a_payload_copy(self, tmp_path):
        lib = make_library(n_tasks=2, n_layers=2, d_in=256, d_out=256, rank=64, seed=1)
        p, q = tmp_path / "a.alib", tmp_path / "b.alib"
        save_library(lib, p)
        loaded = load_library(p)
        payload = len(p.read_bytes()) - payload_start(p)
        tracemalloc.start()
        try:
            save_library(loaded, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.read_bytes() == p.read_bytes()
        assert peak < payload // 4

    def test_load_maps_the_payload_without_a_heap_copy(self, tmp_path):
        # noisy planted deltas are dense-stored: a 256² A per (task, layer)
        spec = PlantedSpec(n_tasks=8, d_in=256, d_out=256, rank_shared=1, rank_specific=1,
                           noise_sigma=0.05, seed=0, n_layers=2)
        p = tmp_path / "dense.alib"
        save_library(gen_planted_library(spec)[0], p)
        payload = len(p.read_bytes()) - payload_start(p)
        tracemalloc.start()
        try:
            lib = load_library(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(d.dense_stored for d in lib.deltas.values())
        assert peak < payload // 100, (peak, payload)


def mixed_library() -> AdapterLibrary:
    """Factored and dense-stored (B = I) deltas over two d_out sizes, s ≠ 1 on
    some, each dense-stored B its own array, one of them with −0.0 off the
    diagonal (which dense_stored counts as the identity)."""
    rng = np.random.default_rng(4)
    shapes = {"00": (6, 5), "01": (4, 7), "02": (3, 5)}
    signed_zeros = np.where(np.eye(5) == 1, 1.0, -0.0)
    deltas = {}
    for layer, (d_in, d_out) in shapes.items():
        deltas[("dense", layer)] = AdapterDelta(
            layer, rng.standard_normal((d_in, d_out)), np.eye(d_out), 1.5)
        deltas[("factored", layer)] = AdapterDelta(
            layer, rng.standard_normal((d_in, 2)), rng.standard_normal((d_out, 2)), 1.25)
        b = signed_zeros.copy() if layer == "00" else np.eye(d_out, dtype=np.float32)
        deltas[("zeros", layer)] = AdapterDelta(layer, rng.standard_normal((d_in, d_out)), b)
    return AdapterLibrary(("dense", "factored", "zeros"), tuple(shapes), deltas)


def read_by_offset(path) -> dict:
    """{(task, layer): s·A·Bᵀ} read with nothing but the index's shapes and offsets."""
    blob = path.read_bytes()
    start = payload_start(path)
    index = json.loads(blob[10:start])

    def tensor(spec):
        count = math.prod(spec["shape"])
        arr = np.frombuffer(blob, "<f4", count=count, offset=start + spec["offset"])
        return arr.reshape(spec["shape"]).astype(np.float64)

    return {(rec["task"], rec["layer"]): float(rec["s"]) * (tensor(rec["a"]) @ tensor(rec["b"]).T)
            for rec in index["entries"]}


def rounded(lib) -> AdapterLibrary:
    """The library with every factor rounded to float32 and widened back."""
    return AdapterLibrary(lib.tasks, lib.layers, {
        key: AdapterDelta(d.layer_id, d.a.astype(np.float32).astype(np.float64),
                          d.b.astype(np.float32).astype(np.float64), d.scaling_s)
        for key, d in lib.deltas.items()})


class TestSharedIdentity:
    """A dense-stored delta's B is one identity per size, on disk and once loaded."""

    def saved(self, tmp_path):
        p = tmp_path / "mixed.alib"
        save_library(mixed_library(), p)
        return p

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p, q = self.saved(tmp_path), tmp_path / "again.alib"
        save_library(load_library(p), q)
        assert q.read_bytes() == p.read_bytes()

    def test_payload_is_the_a_tensors_and_one_identity_per_size(self, tmp_path):
        lib = mixed_library()
        p = self.saved(tmp_path)
        index = json.loads(p.read_bytes()[10:payload_start(p)])
        a_bytes = sum(d.a.size * 4 for d in lib.deltas.values())
        factored_b = sum(lib.deltas[("factored", l)].b.size * 4 for l in lib.layers)
        identities = (5 * 5 + 7 * 7) * 4
        assert index["payload_bytes"] == a_bytes + factored_b + identities
        assert len(p.read_bytes()) - payload_start(p) == index["payload_bytes"]
        # stored_bytes counts the same, in memory, float64 factors or loaded views
        for side in (lib, load_library(p)):
            assert stored_bytes(side) == index["payload_bytes"]

    def test_loaded_identities_are_one_readonly_array_per_size(self, tmp_path):
        lib = load_library(self.saved(tmp_path))
        for d_out, layers in ((5, ("00", "02")), (7, ("01",))):
            bs = [lib.deltas[(t, l)].b for t in ("dense", "zeros") for l in layers]
            assert all(b is bs[0] for b in bs)
            assert bs[0].shape == (d_out, d_out) and not bs[0].flags.writeable
            assert_same_bytes(bs[0], np.eye(d_out, dtype=np.float32))
        assert lib.deltas[("factored", "00")].b is not lib.deltas[("factored", "02")].b

    def test_each_distinct_view_is_checked_once(self, tmp_path, monkeypatch):
        # a shared identity is finite-checked and found dense-stored once,
        # not once per delta, and materialize decides nothing again
        p = self.saved(tmp_path)
        checked, decided = [], []
        finite, identity = adapter_io.all_finite, adapter_io._is_identity
        monkeypatch.setattr(adapter_io, "all_finite", lambda x: checked.append(x) or finite(x))
        monkeypatch.setattr(adapter_io, "_is_identity", lambda b: decided.append(b) or identity(b))
        lib = load_library(p)
        for d in lib.deltas.values():
            d.materialize()
        views = {id(x) for d in lib.deltas.values() for x in (d.a, d.b)}
        assert len(views) == 9 + 3 + 2  # every A, the factored Bs, one identity per size
        assert sorted(map(id, checked)) == sorted(views)
        assert sorted(map(id, decided)) == sorted({id(d.b) for d in lib.deltas.values()})
        assert {key: d.dense_stored for key, d in lib.deltas.items()} == {
            key: d.dense_stored for key, d in mixed_library().deltas.items()}

    def test_materialize_bytes_unchanged(self, tmp_path):
        # the −0.0 B is stored as +0.0, but s·A·Bᵀ is the same to the bit
        want = rounded(mixed_library())
        lib = load_library(self.saved(tmp_path))
        for key, d in want.deltas.items():
            assert_same_bytes(lib.deltas[key].materialize(), d.materialize())
            assert_same_bytes(d.materialize(), d.scaling_s * (d.a @ d.b.T))

    def test_offset_only_reader_decodes_the_same_deltas(self, tmp_path):
        want = rounded(mixed_library())
        got = read_by_offset(self.saved(tmp_path))
        assert set(got) == set(want.deltas)
        for key, d in want.deltas.items():
            np.testing.assert_array_equal(got[key], d.materialize())

    def test_entries_sharing_a_span_load(self, tmp_path):
        # a hand-built version-1 file: both entries' b is the same span
        payload = np.array([1.0, 2.0, 3.0, 4.0, 0.5, -1.0], dtype="<f4").tobytes()
        entries = [{"task": t, "layer": "00", "s": "1.0",
                    "a": {"shape": [2, 1], "offset": 8 * i},
                    "b": {"shape": [2, 1], "offset": 16}} for i, t in enumerate("xy")]
        p = tmp_path / "shared.alib"
        write_alib(p, {"tasks": ["x", "y"], "layers": ["00"], "dtype": "<f4",
                       "entries": entries, "meta": {}}, [payload])
        lib = load_library(p)
        bx, by = (lib.deltas[(t, "00")].b for t in "xy")
        assert bx is by
        np.testing.assert_array_equal(lib.deltas[("y", "00")].materialize(),
                                      [[1.5, -3.0], [2.0, -4.0]])
