"""Adapter container: round trips, corruption handling, directory layout."""

import json
import struct
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
from adapterfuse.containers import ALIB_MAGIC, ALIB_VERSION, write_alib

from conftest import edit_alib_index, make_library


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
        assert lib.layer_shape(0) == (3, 3)

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
            assert bd.a.dtype == np.float64

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
        with pytest.raises(ContainerFormatError, match="magic"):
            load_library(p)

    def test_unsupported_version(self, tmp_path):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[4:6] = struct.pack("<H", ALIB_VERSION + 1)
        p.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match="version"):
            load_library(p)

    def test_truncated_header_and_index(self, tmp_path):
        p = self.saved(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:5])
        with pytest.raises(ContainerFormatError):
            load_library(p)
        p.write_bytes(blob[:8])
        with pytest.raises(ContainerFormatError, match="truncated"):
            load_library(p)
        p.write_bytes(blob[:30])
        with pytest.raises(ContainerFormatError, match="truncated index"):
            load_library(p)

    def test_bad_index_json(self, tmp_path):
        junk = b"{broken"
        p = tmp_path / "x.alib"
        p.write_bytes(ALIB_MAGIC + struct.pack("<H", ALIB_VERSION)
                      + struct.pack("<I", len(junk)) + junk)
        with pytest.raises(ContainerFormatError, match="json"):
            load_library(p)

    @pytest.mark.parametrize("junk", [b"[]", b'{"\xff": 1}', b"[" * 100_000],
                             ids=["array", "not-utf8", "too-deep"])
    def test_index_not_a_json_object(self, junk, tmp_path):
        p = tmp_path / "x.alib"
        p.write_bytes(ALIB_MAGIC + struct.pack("<HI", ALIB_VERSION, len(junk)) + junk)
        with pytest.raises(ContainerFormatError, match="(?i)json"):
            load_library(p)

    @pytest.mark.parametrize("edit", [
        lambda index: {**index, "dtype": "nonsense"},
        lambda index: {**index, "dtype": "<i4"},
        lambda index: {**index, "tasks": 5},
        lambda index: {**index, "meta": 5},
        lambda index: {**index, "entries": [{**index["entries"][0], "s": [1]}]},
    ], ids=["dtype-nonsense", "dtype-i4", "tasks-int", "meta-int", "scaling-list"])
    def test_bad_index_value_rejected(self, edit, tmp_path):
        p = self.saved(tmp_path)
        edit_alib_index(p, edit)
        with pytest.raises(ContainerFormatError):
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
        with pytest.raises(ContainerFormatError, match="overruns"):
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

    def test_duplicate_entry(self, tmp_path):
        payload = np.zeros(4, dtype="<f4").tobytes()
        rec = {"task": "t", "layer": "00", "s": "1.0",
               "a": {"shape": [2, 1], "offset": 0},
               "b": {"shape": [2, 1], "offset": 8}}
        p = self.write_index(tmp_path, self.crafted_index(payload, [rec, rec]), payload)
        with pytest.raises(ContainerFormatError, match="duplicate"):
            load_library(p)


class TestDirectoryLayout:
    def write_tree(self, root, tasks, layers, seed=0):
        rng = np.random.default_rng(seed)
        for t in tasks:
            tdir = root / f"task_{t}"
            tdir.mkdir(parents=True)
            for l in layers:
                d = AdapterDelta(layer_id=l, a=rng.standard_normal((4, 2)),
                                 b=rng.standard_normal((3, 2)))
                one = AdapterLibrary(tasks=(t,), layers=(l,), deltas={(t, l): d})
                save_library(one, tdir / f"layer_{l}.bin")

    def test_round_trip_through_tree(self, tmp_path):
        self.write_tree(tmp_path, ["a", "b"], ["00", "01"])
        lib = load_library(tmp_path)
        assert lib.tasks == ("a", "b") and lib.layers == ("00", "01")
        lib.validate()

    def test_natural_task_order(self, tmp_path):
        self.write_tree(tmp_path, ["2", "10", "1"], ["00"])
        assert load_library(tmp_path).tasks == ("1", "2", "10")

    def test_ragged_schema_rejected(self, tmp_path):
        self.write_tree(tmp_path, ["a"], ["00", "01"])
        self.write_tree(tmp_path / "sub", ["b"], ["00"])
        (tmp_path / "sub" / "task_b").rename(tmp_path / "task_b")
        with pytest.raises(SchemaError, match="schema"):
            load_library(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ContainerFormatError, match="task_"):
            load_library(tmp_path)

    def test_non_layer_files_ignored(self, tmp_path):
        self.write_tree(tmp_path, ["a", "b"], ["00"])
        (tmp_path / "task_a" / "README.txt").write_text("notes\n")
        assert load_library(tmp_path).layers == ("00",)


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

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            export_merged({"00": np.zeros(3)}, tmp_path / "x.alib")
