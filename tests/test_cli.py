"""End-to-end CLI behaviour through main(argv)."""

import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from adapterfuse import (
    EmbeddingSet,
    MergeConfig,
    PlantedSpec,
    gen_planted_library,
    load_factors,
    load_library,
    load_truth,
    merge_library,
    save_embeddings,
    save_library,
    save_truth,
)
from adapterfuse.clustering import load_manifest, save_manifest
from adapterfuse.cli import build_parser, main
from adapterfuse.containers import read_alib, write_alib
from adapterfuse.merge_ops import METHODS

from conftest import blob_points, drop_header_key, edit_alib_index, edit_header, make_library


@pytest.fixture
def lib_path(tmp_path):
    p = tmp_path / "lib.alib"
    save_library(make_library(n_tasks=3, n_layers=2, seed=0), p)
    return p


@pytest.fixture
def spec_path(tmp_path):
    spec = PlantedSpec(n_tasks=2, d_in=10, d_out=8, rank_shared=1,
                       rank_specific=1, seed=4, n_layers=2)
    p = tmp_path / "spec.kv"
    p.write_text(spec.to_kv())
    return p


class TestSynthCommand:
    def test_writes_library_and_truth(self, tmp_path, spec_path, capsys):
        out = tmp_path / "planted.alib"
        rc = main(["synth", "--spec", str(spec_path), "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "tasks = 2" in lines and "layers = 2" in lines
        assert "total_rank = 3" in lines
        lib = load_library(out)
        lib.validate()
        truth = load_truth(str(out) + ".truth")
        assert sorted(truth) == list(lib.layers)

    def test_truth_out_flag(self, tmp_path, spec_path):
        out, tout = tmp_path / "p.alib", tmp_path / "gt.truth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                     "--truth-out", str(tout)]) == 0
        assert tout.exists()

    def test_reruns_byte_identical(self, tmp_path, spec_path):
        o1, o2 = tmp_path / "a.alib", tmp_path / "b.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(o1)])
        main(["synth", "--spec", str(spec_path), "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()
        assert (tmp_path / "a.alib.truth").read_bytes() == \
            (tmp_path / "b.alib.truth").read_bytes()

    @pytest.mark.parametrize("edit,named", [
        (lambda text: "n_tasks = 2\nbroken\n", "line 2"),
        (lambda text: text.replace("n_tasks = 2\n", ""), "'n_tasks'"),
        (lambda text: text.replace("n_tasks = 2\n", "n_tasks = 2.5\n"), "'n_tasks'"),
    ], ids=["malformed-line", "missing-key", "bad-value"])
    def test_bad_spec_is_exit_2(self, tmp_path, spec_path, capsys, edit, named):
        spec_path.write_text(edit(spec_path.read_text()))
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x.alib")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


class TestMergeCommand:
    def test_uniform_matches_library_call(self, tmp_path, lib_path, capsys):
        out = tmp_path / "merged.alib"
        rc = main(["merge", "--library", str(lib_path), "--method", "uniform",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "00: frobenius = " in stdout and f"wrote {out}" in stdout

        src = load_library(lib_path)
        want = merge_library(src, MergeConfig(method="uniform", alpha=0.5))
        merged = load_library(out)
        assert merged.tasks == ("merged",)
        for layer, m in want.items():
            np.testing.assert_allclose(
                merged.deltas[("merged", layer)].materialize(),
                m.astype(np.float32), atol=1e-7)
        assert merged.meta["method"] == "uniform"
        assert len(merged.meta["config_sha256"]) == 64
        assert "alpha = 0.5" in merged.meta["config"]

    @pytest.mark.parametrize("method", METHODS)
    def test_merged_delta_beyond_float32_is_written_with_a_power_of_two_scale(
            self, method, tmp_path, capsys):
        # s = 1e40: every merged layer is beyond float32, so it is stored as
        # A·2⁻ᵉ with s = 2ᵉ and reloads as the merge to float32 rounding
        p, out = tmp_path / "big.alib", tmp_path / "m.alib"
        save_library(make_library(d_in=40, d_out=30, rank=3, n_layers=1, scaling=1e40), p)
        assert main(["merge", "--library", str(p), "--method", method,
                     "--cp-rank", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        want = merge_library(load_library(p), MergeConfig(method=method, cp_rank=4))["00"]
        got = load_library(out).deltas[("merged", "00")]
        assert got.scaling_s > 1.0 and math.frexp(got.scaling_s)[0] == 0.5
        np.testing.assert_allclose(got.materialize(), want, rtol=2.0 ** -23, atol=0)

    def test_defaults_come_from_the_config(self, tmp_path, lib_path, capsys):
        for method in METHODS:
            out = tmp_path / f"{method}.alib"
            assert main(["merge", "--library", str(lib_path), "--method", method,
                         "--out", str(out)]) == 0
            assert load_library(out).meta["config"] == MergeConfig(method=method).to_kv()
        capsys.readouterr()

    def test_average_flag_is_gone(self, tmp_path, lib_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--library", str(lib_path), "--method", "cp", "--average",
                  "--out", str(tmp_path / "m.alib")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --average" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["task-arithmetic", "ties", "dare-ties",
                                        "dare-ta", "tsv", "cp"])
    def test_each_method_runs(self, method, tmp_path, lib_path):
        out = tmp_path / f"{method}.alib"
        rc = main(["merge", "--library", str(lib_path), "--method", method,
                   "--cp-rank", "2", "--out", str(out)])
        assert rc == 0
        assert load_library(out).tasks == ("merged",)

    def test_field_out_of_range_is_exit_2_whatever_the_method(self, tmp_path, lib_path, capsys):
        rc = main(["merge", "--library", str(lib_path), "--method", "uniform",
                   "--k-density", "0", "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "k_density" in capsys.readouterr().err

    def test_cp_rank_above_the_layer_bound_is_exit_2(self, tmp_path, spec_path, capsys):
        # 2 tasks of rank 2 stack to 4 columns: the 4×4×2 core allows R ≤ 8
        lib = tmp_path / "p.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(lib)])
        capsys.readouterr()
        rc = main(["merge", "--library", str(lib), "--method", "cp", "--cp-rank", "9",
                   "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "R=9 out of range [1, 8] for shape (10, 8, 2)" in capsys.readouterr().err
        assert not (tmp_path / "m.alib").exists()

    def test_truth_column(self, tmp_path, spec_path, capsys):
        out = tmp_path / "p.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(out)])
        capsys.readouterr()
        rc = main(["merge", "--library", str(out), "--method", "task-arithmetic",
                   "--out", str(tmp_path / "m.alib"),
                   "--truth", str(out) + ".truth"])
        assert rc == 0
        stdout = capsys.readouterr().out
        # noiseless planted library: plain sum recovers the truth exactly
        for line in stdout.splitlines():
            if "recovery_error" in line:
                assert float(line.rsplit("= ", 1)[1]) < 1e-6

    def test_truth_missing_layer(self, tmp_path, lib_path, capsys):
        from adapterfuse.synth import save_truth
        t = tmp_path / "bad.truth"
        save_truth({"zz": np.zeros((8, 6))}, t)
        rc = main(["merge", "--library", str(lib_path), "--method", "uniform",
                   "--out", str(tmp_path / "m.alib"), "--truth", str(t)])
        assert rc == 2
        assert "no layer" in capsys.readouterr().err

    def test_truth_missing_a_later_layer_is_exit_2_and_writes_nothing(self, tmp_path, lib_path,
                                                                       capsys):
        # layer 00 is merged, printed and narrowed before 01 finds no truth
        t = tmp_path / "bad.truth"
        save_truth({"00": np.zeros((8, 6))}, t)
        rc = main(["merge", "--library", str(lib_path), "--method", "uniform",
                   "--out", str(tmp_path / "m.alib"), "--truth", str(t)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out.startswith("00: frobenius = ") and len(out.splitlines()) == 1
        assert "truth sidecar has no layer '01'" in err
        assert not (tmp_path / "m.alib").exists()

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "cp"])
    def test_peak_grows_by_one_float32_layer_per_layer(self, method, tmp_path, capsys):
        # each layer is narrowed to the float32 it is written as before the
        # next is merged, and the library's payload is mapped, not copied
        d, few, many = 128, 2, 10
        peaks = {}
        for n_layers in (few, few, many):  # the first run is a warm-up
            lib = tmp_path / f"lib{n_layers}.alib"
            spec = PlantedSpec(n_tasks=4, d_in=d, d_out=d, rank_shared=1, rank_specific=1,
                               noise_sigma=0.05, seed=0, n_layers=n_layers)
            save_library(gen_planted_library(spec)[0], lib)
            tracemalloc.start()
            try:
                rc = main(["merge", "--library", str(lib), "--method", method,
                           "--out", str(tmp_path / "m.alib")])
                peaks[n_layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
        capsys.readouterr()
        # per layer: its float32 payload, plus its index entry and objects;
        # once: the timing of the two workers' scratch (one noise block)
        bound = (many - few) * (d * d * 4 + 8 * 2**10) + 256 * 2**10
        assert peaks[many] - peaks[few] <= bound, (peaks, bound)

    def test_truth_missing_header_key_is_exit_2(self, tmp_path, spec_path, capsys):
        out = tmp_path / "p.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(out)])
        truth = tmp_path / "p.alib.truth"
        drop_header_key(truth, "dtype")
        capsys.readouterr()
        rc = main(["merge", "--library", str(out), "--method", "uniform",
                   "--out", str(tmp_path / "m.alib"), "--truth", str(truth)])
        assert rc == 2
        assert "missing 'dtype'" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix,edit", [
        ("", lambda p: edit_alib_index(p, lambda index: [])),
        ("", lambda p: edit_alib_index(p, lambda index: {**index, "dtype": "<i4"})),
        (".truth", lambda p: edit_header(p, lambda h: h["layers"].append("99"))),
    ], ids=["index-array", "dtype-i4", "truth-extra-layer"])
    def test_malformed_header_is_exit_2(self, suffix, edit, tmp_path, spec_path, capsys):
        out = tmp_path / "p.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(out)])
        edit(tmp_path / f"p.alib{suffix}")
        capsys.readouterr()
        rc = main(["merge", "--library", str(out), "--method", "uniform",
                   "--out", str(tmp_path / "m.alib"), "--truth", f"{out}.truth"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_scaling_is_exit_2(self, tmp_path, lib_path, capsys):
        edit_alib_index(lib_path, lambda index: {**index, "entries": [
            {**index["entries"][0], "s": "inf"}, *index["entries"][1:]]})
        rc = main(["merge", "--library", str(lib_path), "--method", "cp",
                   "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "scaling_s" in capsys.readouterr().err

    def test_non_finite_factor_is_exit_2(self, tmp_path, lib_path, capsys):
        index, payload = read_alib(lib_path, "<f4")
        values = np.frombuffer(payload, "<f4").copy()
        values[index["entries"][0]["a"]["offset"] // 4] = np.nan
        write_alib(lib_path, index, [values])  # a fresh checksum over the nan
        rc = main(["merge", "--library", str(lib_path), "--method", "uniform",
                   "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "has non-finite entries" in capsys.readouterr().err

    def test_missing_library_file(self, tmp_path, capsys):
        rc = main(["merge", "--library", str(tmp_path / "nope.alib"),
                   "--method", "uniform", "--out", str(tmp_path / "m.alib")])
        assert rc == 2


class TestInterfereCommand:
    def test_csv_format(self, lib_path, capsys):
        rc = main(["interfere", "--library", str(lib_path), "--k", "1",
                   "--cp-rank", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "layer_id,sti,cp_sti"
        assert len(lines) == 3

    def test_json_format(self, lib_path, capsys):
        rc = main(["interfere", "--library", str(lib_path), "--k", "1",
                   "--cp-rank", "2", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 1 and doc["R"] == 2
        assert [row["layer_id"] for row in doc["layers"]] == ["00", "01"]

    def test_text_format(self, lib_path, capsys):
        assert main(["interfere", "--library", str(lib_path), "--k", "1",
                     "--cp-rank", "1", "--format", "text"]) == 0
        assert "00" in capsys.readouterr().out

    def test_bad_k_is_exit_2(self, lib_path, capsys):
        assert main(["interfere", "--library", str(lib_path), "--k", "0",
                     "--cp-rank", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_cp_rank_is_exit_2(self, lib_path, capsys):
        assert main(["interfere", "--library", str(lib_path), "--k", "1",
                     "--cp-rank", "0"]) == 2
        assert "--cp-rank must be ≥ 1, got 0" in capsys.readouterr().err

    def test_huge_scaling_is_scored(self, tmp_path, capsys):
        # s = 1e200: the CP fit runs rescaled, and both scores are finite
        p = tmp_path / "huge.alib"
        save_library(make_library(d_in=40, d_out=30, rank=3, n_layers=1, scaling=1e200), p)
        assert main(["interfere", "--library", str(p), "--k", "2", "--cp-rank", "2"]) == 0
        _, row = capsys.readouterr().out.splitlines()
        assert all(np.isfinite(float(x)) for x in row.split(",")[1:])

    def test_internal_failure_is_exit_1(self, lib_path, capsys, monkeypatch):
        import adapterfuse.cli as cli_mod
        def boom(*a, **kw):
            raise RuntimeError("synthetic crash")
        monkeypatch.setattr(cli_mod, "layer_profile", boom)
        rc = main(["interfere", "--library", str(lib_path), "--k", "1",
                   "--cp-rank", "1"])
        assert rc == 1
        assert "internal error: RuntimeError" in capsys.readouterr().err


class TestSweepCommand:
    def synth(self, tmp_path, spec_path):
        out = tmp_path / "p.alib"
        main(["synth", "--spec", str(spec_path), "--out", str(out)])
        return out, str(out) + ".truth"

    def test_cp_rank_sweep_and_resume(self, tmp_path, spec_path, capsys):
        lib, truth = self.synth(tmp_path, spec_path)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                   "--values", "1", "2", "--out", str(out), "--truth", truth])
        assert rc == 0
        capsys.readouterr()
        first = out.read_text()
        rows = first.splitlines()
        assert rows[0] == "param,value,metric,score"
        assert len(rows) == 3 and rows[1].startswith("cp-rank,1,recovery-error,")

        rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                   "--values", "2", "3", "--out", str(out), "--truth", truth])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "cp-rank = 2: cached" in stdout
        assert "cp-rank = 3: recovery-error" in stdout
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        # previously computed rows are preserved verbatim
        assert rows[1:3] == first.splitlines()[1:3]

    def test_scores_shrink_with_rank(self, tmp_path, spec_path):
        # exact-rank planted input: at the planted rank the cp merge is exact
        lib, truth = self.synth(tmp_path, spec_path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--library", str(lib), "--param", "cp-rank",
              "--values", "1", "3", "--out", str(out), "--truth", truth])
        scores = [float(r.rsplit(",", 1)[1]) for r in out.read_text().splitlines()[1:]]
        assert scores[1] < scores[0]
        assert scores[1] < 1e-5

    def test_peak_does_not_grow_by_a_float64_layer_per_layer(self, tmp_path, capsys):
        # each layer's merge is scored and dropped before the next is merged
        d, few, many = 96, 2, 8
        peaks = {}
        for n_layers in (few, few, many):  # the first run is a warm-up
            lib, truth = tmp_path / f"lib{n_layers}.alib", tmp_path / f"lib{n_layers}.truth"
            spec = PlantedSpec(n_tasks=3, d_in=d, d_out=d, rank_shared=1, rank_specific=1,
                               seed=0, n_layers=n_layers)
            planted, gt = gen_planted_library(spec)
            save_library(planted, lib)
            save_truth(gt.layer_sums, truth)
            out = tmp_path / f"sweep{n_layers}.csv"
            out.unlink(missing_ok=True)
            tracemalloc.start()
            try:
                rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                           "--values", "3", "--out", str(out), "--truth", str(truth)])
                peaks[n_layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
        capsys.readouterr()
        # per layer: its truth and library index entries and objects, and its error
        bound = (many - few) * d * d * 8 // 4
        assert peaks[many] - peaks[few] <= bound, (peaks, bound)

    def test_k_clusters_sweep(self, tmp_path, capsys):
        vectors, _ = blob_points()
        e = EmbeddingSet(ids=[str(i) for i in range(len(vectors))], vectors=vectors)
        ep = tmp_path / "x.emb"
        save_embeddings(e, ep)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--param", "k-clusters", "--values", "1", "2",
                   "--embeddings", str(ep), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("k-clusters,1,inertia,")
        scores = [float(r.rsplit(",", 1)[1]) for r in rows[1:]]
        assert scores[1] < scores[0]  # two blobs: K=2 explains far more

    def test_missing_truth_is_exit_2(self, tmp_path, lib_path, capsys):
        rc = main(["sweep", "--library", str(lib_path), "--param", "cp-rank",
                   "--values", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "requires --truth" in capsys.readouterr().err

    def test_missing_library_is_exit_2(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "cp-rank", "--values", "1",
                   "--out", str(tmp_path / "s.csv"), "--truth", "unused"])
        assert rc == 2
        assert "requires --library" in capsys.readouterr().err

    def test_truth_without_a_library_layer_is_exit_2(self, tmp_path, spec_path, capsys):
        lib, truth = self.synth(tmp_path, spec_path)
        save_truth({"00": load_truth(truth)["00"]}, truth)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                   "--values", "1", "--out", str(out), "--truth", truth])
        assert rc == 2
        assert "truth sidecar has no layer '01'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_embeddings_is_exit_2(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "k-clusters", "--values", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "requires --embeddings" in capsys.readouterr().err

    def test_empty_values_is_usage_error(self, tmp_path, lib_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--library", str(lib_path), "--param", "cp-rank",
                  "--values", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    def test_corrupt_existing_csv_is_exit_2(self, tmp_path, spec_path, capsys):
        lib, truth = self.synth(tmp_path, spec_path)
        out = tmp_path / "sweep.csv"
        out.write_text("bogus header\n")
        rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                   "--values", "1", "--out", str(out), "--truth", truth])
        assert rc == 2
        assert "bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("cp-rank,3", "expected 4 fields, got 2"),
        ("cp-rank,1,recovery-error,fast", "score 'fast' is not a number"),
    ], ids=["short-row", "score-not-a-float"])
    def test_malformed_csv_row_is_exit_2_naming_the_line(self, tmp_path, spec_path, capsys,
                                                         row, message):
        lib, truth = self.synth(tmp_path, spec_path)
        out = tmp_path / "sweep.csv"
        before = f"param,value,metric,score\ncp-rank,2,recovery-error,0.5\n{row}\n"
        out.write_text(before)
        rc = main(["sweep", "--library", str(lib), "--param", "cp-rank",
                   "--values", "1", "--out", str(out), "--truth", truth])
        assert rc == 2
        assert f"error: {out}:3: {message}" in capsys.readouterr().err
        assert out.read_text() == before  # nothing is written back


class TestCompressCommand:
    def test_outputs_and_reported_error(self, tmp_path, lib_path, capsys):
        out = tmp_path / "cpf"
        rc = main(["compress", "--library", str(lib_path), "--cp-rank", "2",
                   "--task", "1", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        lib = load_library(lib_path)
        for layer in lib.layers:
            path = out / f"layer_{layer}.cpf"
            assert path.exists()
            # reported error is reproducible from the artifact alone
            from adapterfuse import cp_reconstruct_slice
            from adapterfuse.synth import recovery_error
            approx = cp_reconstruct_slice(load_factors(path), 1)
            target = lib.deltas[("1", layer)].materialize()
            line = [l for l in stdout.splitlines() if l.startswith(f"{layer}:")][0]
            reported = float(line.split("= ", 1)[1].split(" ->")[0])
            assert reported == recovery_error(approx, target)
        d = lib.deltas[("0", "00")]
        n_layers, d_in, d_out = len(lib.layers), d.d_in, d.d_out
        want = n_layers * 2 * (1 + 3 + d_in + d_out) * 4
        assert f"storage_bytes = {want}" in stdout
        assert "ratio = " in stdout
        stored = len(lib.tasks) * n_layers * d.rank * (d_in + d_out) * 4
        assert f"library_bytes = {stored}\n" in stdout
        assert f"library_ratio = {want / stored!r}\n" in stdout

    def test_library_bytes_count_a_shared_identity_once(self, tmp_path, spec_path, capsys):
        # a noisy library stores every A and one identity per d_out
        spec = PlantedSpec.from_kv(spec_path.read_text())
        spec_path.write_text(dataclasses.replace(spec, noise_sigma=0.05).to_kv())
        lib = tmp_path / "noisy.alib"
        assert main(["synth", "--spec", str(spec_path), "--out", str(lib)]) == 0
        assert main(["compress", "--library", str(lib), "--cp-rank", "2",
                     "--task", "1", "--out", str(tmp_path / "c")]) == 0
        stdout = capsys.readouterr().out
        stored = (spec.n_tasks * spec.n_layers * spec.d_in * spec.d_out + spec.d_out ** 2) * 4
        assert f"library_bytes = {stored}\n" in stdout

    def test_seed_defaults_to_the_fit_options(self, tmp_path, lib_path, capsys):
        base = ["compress", "--library", str(lib_path), "--cp-rank", "2", "--task", "1"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b"), "--seed", "0"]) == 0
        capsys.readouterr()
        for layer in load_library(lib_path).layers:
            name = f"layer_{layer}.cpf"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_task_lists_tasks(self, tmp_path, lib_path, capsys):
        rc = main(["compress", "--library", str(lib_path), "--cp-rank", "1",
                   "--task", "9", "--out", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown task" in err and "0, 1, 2" in err

    def test_factor_beyond_float32_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # s = 1e40: the fit is finite, but lam does not fit a float32
        p = tmp_path / "big.alib"
        save_library(make_library(d_in=40, d_out=30, rank=3, n_layers=1, scaling=1e40), p)
        out = tmp_path / "c"
        assert main(["compress", "--library", str(p), "--cp-rank", "4",
                     "--task", "0", "--out", str(out)]) == 2
        assert "factor lam exceeds the float32 range" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_zero_rank_is_exit_2(self, tmp_path, lib_path):
        assert main(["compress", "--library", str(lib_path), "--cp-rank", "0",
                     "--task", "0", "--out", str(tmp_path / "c")]) == 2


class TestClusterCommand:
    def make_inputs(self, tmp_path):
        vectors, _ = blob_points()
        ids = [f"s{i}" for i in range(len(vectors))]
        e = EmbeddingSet(ids=ids, vectors=vectors)
        ep = tmp_path / "x.emb"
        save_embeddings(e, ep)
        mp = tmp_path / "m.jsonl"
        save_manifest({sid: {"id": sid, "n": i} for i, sid in enumerate(ids)}, mp)
        return ep, mp

    def test_partitions_written(self, tmp_path, capsys):
        ep, mp = self.make_inputs(tmp_path)
        out_dir = tmp_path / "parts"
        rc = main(["cluster", "--embeddings", str(ep), "--manifest", str(mp),
                   "--k", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "inertia = " in stdout and "iterations = " in stdout
        parts = [load_manifest(out_dir / f"cluster_{j}.jsonl") for j in (0, 1)]
        all_ids = [sid for part in parts for sid in part]
        assert sorted(all_ids) == sorted(load_manifest(mp))
        assert len(all_ids) == len(set(all_ids))

    def test_rerun_byte_identical(self, tmp_path):
        ep, mp = self.make_inputs(tmp_path)
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        for d in (d1, d2):
            main(["cluster", "--embeddings", str(ep), "--manifest", str(mp),
                  "--k", "2", "--out-dir", str(d), "--seed", "7"])
        for j in (0, 1):
            assert (d1 / f"cluster_{j}.jsonl").read_bytes() == \
                (d2 / f"cluster_{j}.jsonl").read_bytes()


class TestNegativeSeed:
    """Every --seed rejects a negative value by name, exit 2, before writing."""

    def assert_rejected(self, argv, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert "seed must be ≥ 0, got -1" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("method", METHODS)
    def test_merge(self, method, tmp_path, lib_path, capsys):
        self.assert_rejected(["merge", "--library", str(lib_path), "--method", method,
                              "--seed", "-1", "--out", str(tmp_path / "m.alib")],
                             tmp_path, capsys)

    def test_compress(self, tmp_path, lib_path, capsys):
        self.assert_rejected(["compress", "--library", str(lib_path), "--cp-rank", "1",
                              "--task", "0", "--seed", "-1", "--out", str(tmp_path / "c")],
                             tmp_path, capsys)

    def test_sweep_cp_rank(self, tmp_path, capsys):
        spec = tmp_path / "s.kv"
        spec.write_text(PlantedSpec(n_tasks=2, d_in=6, d_out=5, rank_shared=1,
                                    rank_specific=1).to_kv())
        lib = tmp_path / "p.alib"
        assert main(["synth", "--spec", str(spec), "--out", str(lib)]) == 0
        argv = ["sweep", "--library", str(lib), "--truth", f"{lib}.truth",
                "--param", "cp-rank", "--values", "1", "--out", str(tmp_path / "s.csv")]
        self.assert_rejected(argv + ["--seed", "-1"], tmp_path, capsys)
        assert main(argv) == 0
        self.assert_rejected(argv + ["--seed", "-1"], tmp_path, capsys)  # the value is cached

    def test_sweep_k_clusters_and_cluster(self, tmp_path, capsys):
        ep, mp = TestClusterCommand().make_inputs(tmp_path)
        self.assert_rejected(["sweep", "--embeddings", str(ep), "--param", "k-clusters",
                              "--values", "2", "--seed", "-1", "--out", str(tmp_path / "s.csv")],
                             tmp_path, capsys)
        self.assert_rejected(["cluster", "--embeddings", str(ep), "--manifest", str(mp),
                              "--k", "2", "--seed", "-1", "--out-dir", str(tmp_path / "parts")],
                             tmp_path, capsys)

    def test_synth(self, tmp_path, spec_path, capsys):
        spec_path.write_text(spec_path.read_text().replace("seed = 4", "seed = -1"))
        assert "seed = -1" in spec_path.read_text()
        self.assert_rejected(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x.alib")],
                             tmp_path, capsys)


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_method_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--library", "x", "--method", "blend", "--out", "y"])
        assert exc.value.code == 2

    def test_parser_built_once_and_reused(self, tmp_path, lib_path, capsys):
        assert build_parser() is build_parser()
        out = tmp_path / "m.alib"
        assert main(["merge", "--library", str(lib_path), "--method", "uniform",
                     "--out", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--library", str(lib_path), "--method", "blend", "--out", "y"])
        assert exc.value.code == 2
        assert main(["interfere", "--library", str(lib_path), "--k", "1",
                     "--cp-rank", "2"]) == 0
        # no option of the earlier calls leaks into this one
        assert main(["merge", "--library", str(lib_path), "--method", "ties",
                     "--out", str(out)]) == 0
        assert load_library(out).meta["method"] == "ties"
        assert main(["interfere", "--library", str(lib_path), "--k", "0",
                     "--cp-rank", "2"]) == 2
        assert "--k must be" in capsys.readouterr().err

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adapterfuse", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "merge" in proc.stdout and "interfere" in proc.stdout
