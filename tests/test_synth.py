"""Planted-library generators, ground truth containers, kv config text."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    ContainerFormatError,
    GroundTruth,
    PlantedSpec,
    ShapeMismatchError,
    gen_overlap_library,
    gen_planted_library,
    load_truth,
    recovery_error,
    save_truth,
)
from adapterfuse import kvconfig

from conftest import drop_header_key, edit_header


class TestPlantedSpec:
    def test_defaults_and_total_rank(self):
        spec = PlantedSpec(n_tasks=3, d_in=8, d_out=6, rank_shared=2, rank_specific=1)
        assert spec.total_rank == 2 + 3 * 1
        # default loadings are descending integers
        assert spec.lambda_shared == (2.0, 1.0)
        assert spec.lambda_specific == (1.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlantedSpec(n_tasks=0, d_in=4, d_out=4, rank_shared=1, rank_specific=0)
        with pytest.raises(ValueError, match="n_layers must be ≥ 1, got 0"):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=0, n_layers=0)
        with pytest.raises(ValueError, match="ranks must be ≥ 0"):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=-1)
        with pytest.raises(ValueError, match="lambda_shared has non-finite entries"):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=0,
                        lambda_shared=(float("inf"),))
        with pytest.raises(ValueError):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=0, rank_specific=0)
        with pytest.raises(ValueError):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1,
                        rank_specific=0, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1,
                        rank_specific=0, lambda_shared=(1.0, 2.0))
        with pytest.raises(ValueError, match="seed"):
            PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=0, seed=-1)
        with pytest.raises(ValueError):
            # 2 + 2·2 components exceed min(4, 5)
            PlantedSpec(n_tasks=2, d_in=4, d_out=5, rank_shared=2, rank_specific=2)

    def test_kv_round_trip(self):
        spec = PlantedSpec(n_tasks=2, d_in=8, d_out=6, rank_shared=1,
                           rank_specific=2, lambda_specific=(2.5, 0.5),
                           noise_sigma=0.1, seed=9, n_layers=3)
        again = PlantedSpec.from_kv(spec.to_kv())
        assert again == spec

    def test_kv_text_is_pinned(self):
        # these bytes land in every planted library's meta (spec)
        spec = PlantedSpec(n_tasks=2, d_in=8, d_out=6, rank_shared=1,
                           rank_specific=2, lambda_specific=(2.5, 0.5),
                           noise_sigma=0.1, seed=9, n_layers=3)
        assert spec.to_kv() == (
            "n_tasks = 2\nd_in = 8\nd_out = 6\nrank_shared = 1\nrank_specific = 2\n"
            "lambda_shared = 1.0\nlambda_specific = 2.5,0.5\nnoise_sigma = 0.1\n"
            "seed = 9\nn_layers = 3\n")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_kv_round_trip_property(self, data):
        n_tasks = data.draw(st.integers(1, 4))
        rank_shared = data.draw(st.integers(0, 3))
        rank_specific = data.draw(st.integers(0 if rank_shared else 1, 2))
        total = rank_shared + n_tasks * rank_specific
        finite = st.floats(allow_nan=False, allow_infinity=False)
        spec = PlantedSpec(
            n_tasks=n_tasks, d_in=data.draw(st.integers(total, total + 5)),
            d_out=data.draw(st.integers(total, total + 5)),
            rank_shared=rank_shared, rank_specific=rank_specific,
            lambda_shared=data.draw(st.none() | st.tuples(*[finite] * rank_shared)),
            lambda_specific=data.draw(st.none() | st.tuples(*[finite] * rank_specific)),
            noise_sigma=data.draw(st.floats(0.0, 1e3)), seed=data.draw(st.integers(0, 2**64)),
            n_layers=data.draw(st.integers(1, 5)),
        )
        assert PlantedSpec.from_kv(spec.to_kv()) == spec

    def test_kv_unknown_key(self):
        spec = PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=0)
        with pytest.raises(ValueError):
            PlantedSpec.from_kv(spec.to_kv() + "bogus = 1\n")

    def test_kv_missing_and_bad_values_name_their_key(self):
        text = PlantedSpec(n_tasks=2, d_in=4, d_out=4, rank_shared=1, rank_specific=0).to_kv()
        without = "".join(l for l in text.splitlines(True) if not l.startswith("n_tasks"))
        with pytest.raises(ValueError, match="missing 'n_tasks'"):
            PlantedSpec.from_kv(without)
        for key, value in (("n_tasks", "2.5"), ("noise_sigma", "loud"),
                           ("lambda_shared", "1, x")):
            bad = "".join(f"{key} = {value}\n" if l.startswith(f"{key} ") else l
                          for l in text.splitlines(True))
            with pytest.raises(ValueError, match=f"'{key}'"):
                PlantedSpec.from_kv(bad)


class TestPlantedLibrary:
    spec = PlantedSpec(n_tasks=3, d_in=10, d_out=8, rank_shared=1,
                       rank_specific=1, n_layers=2, seed=5)

    def test_shapes_and_schema(self):
        lib, truth = gen_planted_library(self.spec)
        lib.validate()
        assert lib.tasks == ("0", "1", "2")
        assert lib.layers == ("00", "01")
        assert isinstance(truth, GroundTruth)
        assert truth.total_rank == self.spec.total_rank
        for layer in lib.layers:
            assert truth.layer_sums[layer].shape == (10, 8)

    def test_noiseless_truth_is_task_sum(self):
        lib, truth = gen_planted_library(self.spec)
        for layer in lib.layers:
            sum_ = sum(lib.deltas[(t, layer)].materialize() for t in lib.tasks)
            np.testing.assert_allclose(truth.layer_sums[layer], sum_, atol=1e-12)

    def test_noiseless_deltas_have_planted_rank(self):
        lib, _ = gen_planted_library(self.spec)
        for key, d in lib.deltas.items():
            # shared + one task-specific component
            assert np.linalg.matrix_rank(d.materialize()) == 2

    def test_noise_magnitude_is_exact(self):
        spec = PlantedSpec(n_tasks=2, d_in=12, d_out=9, rank_shared=1,
                           rank_specific=1, noise_sigma=0.25, seed=3, n_layers=2)
        noisy, _ = gen_planted_library(spec)
        clean, _ = gen_planted_library(
            PlantedSpec(**{**spec_kv_dict(spec), "noise_sigma": 0.0}))
        for key in noisy.deltas:
            s = clean.deltas[key].materialize()
            n = noisy.deltas[key].materialize() - s
            assert np.linalg.norm(n) / np.linalg.norm(s) == pytest.approx(0.25, abs=1e-12)

    def test_signal_invariant_to_noise_level(self):
        base = spec_kv_dict(self.spec)
        _, t1 = gen_planted_library(PlantedSpec(**{**base, "noise_sigma": 0.0}))
        _, t2 = gen_planted_library(PlantedSpec(**{**base, "noise_sigma": 0.7}))
        for layer in t1.layer_sums:
            np.testing.assert_array_equal(t1.layer_sums[layer], t2.layer_sums[layer])

    def test_shared_component_really_shared(self):
        # rank_specific=0: all tasks see the same signal up to loadings,
        # so pairwise deltas are parallel
        spec = PlantedSpec(n_tasks=2, d_in=8, d_out=8, rank_shared=1,
                           rank_specific=0, seed=1)
        lib, _ = gen_planted_library(spec)
        m0 = lib.deltas[("0", "00")].materialize().ravel()
        m1 = lib.deltas[("1", "00")].materialize().ravel()
        cos = np.dot(m0, m1) / (np.linalg.norm(m0) * np.linalg.norm(m1))
        assert abs(cos) == pytest.approx(1.0, abs=1e-12)

    def test_noisy_deltas_share_one_identity(self):
        # the dense-merge benchmark's library: 16 noisy 512×512 deltas
        spec = PlantedSpec(n_tasks=8, d_in=512, d_out=512, rank_shared=2, rank_specific=4,
                           noise_sigma=0.05, n_layers=2)
        tracemalloc.start()
        try:
            lib, _ = gen_planted_library(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bs = [d.b for d in lib.deltas.values()]
        assert all(b is bs[0] for b in bs) and not bs[0].flags.writeable
        # the A's and the layer sums, one identity and four matrices of scratch
        matrix = 512 * 512 * 8
        assert peak < (len(bs) + spec.n_layers + 1 + 4) * matrix

    def test_deterministic(self):
        lib1, t1 = gen_planted_library(self.spec)
        lib2, t2 = gen_planted_library(self.spec)
        for key in lib1.deltas:
            np.testing.assert_array_equal(
                lib1.deltas[key].materialize(), lib2.deltas[key].materialize())
        for layer in t1.layer_sums:
            np.testing.assert_array_equal(t1.layer_sums[layer], t2.layer_sums[layer])


def spec_kv_dict(spec):
    return dict(
        n_tasks=spec.n_tasks, d_in=spec.d_in, d_out=spec.d_out,
        rank_shared=spec.rank_shared, rank_specific=spec.rank_specific,
        lambda_shared=spec.lambda_shared, lambda_specific=spec.lambda_specific,
        noise_sigma=spec.noise_sigma, seed=spec.seed, n_layers=spec.n_layers)


class TestOverlapLibrary:
    def test_schema(self):
        lib = gen_overlap_library(n_layers=4, d_in=10, d_out=9, seed=2)
        lib.validate()
        assert lib.tasks == ("0", "1")
        assert len(lib.layers) == 4

    def test_overlap_schedule_in_row_space(self):
        # cosine of the two tasks' dominant row directions tracks rho_b
        lib = gen_overlap_library(n_layers=5, seed=0)
        rho_b = np.linspace(0.9, 0.1, 5)
        for idx, layer in enumerate(lib.layers):
            a0 = lib.deltas[("0", layer)].a[:, 0]
            a1 = lib.deltas[("1", layer)].a[:, 0]
            cos = abs(np.dot(a0, a1)) / (np.linalg.norm(a0) * np.linalg.norm(a1))
            assert cos == pytest.approx(1.0, abs=1e-12)  # shared leading frame col
            b0 = lib.deltas[("0", layer)].a[:, 1]
            b1 = lib.deltas[("1", layer)].a[:, 1]
            cosb = abs(np.dot(b0, b1)) / (np.linalg.norm(b0) * np.linalg.norm(b1))
            assert cosb == pytest.approx(1.0, abs=1e-12)
            # across the two columns the planned overlap shows up
            cross = abs(np.dot(a0, b0)) / (np.linalg.norm(a0) * np.linalg.norm(b0))
            assert cross == pytest.approx(rho_b[idx], abs=1e-12)

    def test_min_layers(self):
        with pytest.raises(ValueError):
            gen_overlap_library(n_layers=1)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be ≥ 0, got -1"):
            gen_overlap_library(seed=-1)


class TestRecoveryError:
    def test_hand_value(self):
        truth = np.array([[3.0, 0.0], [0.0, 4.0]])
        merged = truth + np.array([[0.0, 1.0], [0.0, 0.0]])
        assert recovery_error(merged, truth) == pytest.approx(1.0 / 5.0, rel=1e-12)
        assert recovery_error(truth, truth) == 0.0

    def test_zero_truth(self):
        z = np.zeros((2, 2))
        assert recovery_error(z, z) == 0.0
        assert recovery_error(np.ones((2, 2)), z) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            recovery_error(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTruthContainer:
    def test_round_trip_exact(self, tmp_path, rng):
        sums = {"00": rng.standard_normal((4, 5)), "01": rng.standard_normal((4, 5))}
        p = tmp_path / "x.truth"
        save_truth(sums, p)
        back = load_truth(p)
        assert list(back) == ["00", "01"]
        for layer, m in sums.items():
            # float64 payload: bit exact
            np.testing.assert_array_equal(back[layer], m)

    def test_layers_are_aligned_readonly_views(self, tmp_path, rng):
        sums = {"00": rng.standard_normal((4, 5)), "01": rng.standard_normal((3, 2))}
        p = tmp_path / "x.truth"
        save_truth(sums, p)
        assert p.read_bytes().index(b"\n") % 64 == 63  # the payload starts on 64
        for legacy in (False, True):
            # a file written without header padding, its payload off every
            # float64 boundary, loads aligned copies
            pad = ""
            while legacy and (p.read_bytes().index(b"\n") + 1) % 8 == 0:
                pad += "x"
                edit_header(p, lambda h: h.update(pad=pad))
            back = load_truth(p)
            for layer, m in sums.items():
                assert back[layer].dtype == np.float64
                assert back[layer].tobytes() == m.tobytes()
                assert back[layer].flags.aligned and not back[layer].flags.writeable

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.truth"
        p.write_bytes(b"nope\n")
        with pytest.raises(ContainerFormatError):
            load_truth(p)
        p.write_bytes(b'{"format": "emb", "version": 1}\n')
        with pytest.raises(ContainerFormatError, match="not a truth"):
            load_truth(p)

    @pytest.mark.parametrize("key", ["dtype", "layers", "shapes"])
    def test_missing_header_key_named(self, key, tmp_path, rng):
        p = tmp_path / "x.truth"
        save_truth({"00": rng.standard_normal((3, 3))}, p)
        drop_header_key(p, key)
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_truth(p)

    @pytest.mark.parametrize("edit", [
        lambda h: h["layers"].append("01"),
        lambda h: h["shapes"].append([3, 3]),
        lambda h: h["shapes"][0].append(0.5),
        lambda h: h.update(dtype="<i8"),
    ], ids=["extra-layer", "extra-shape", "float-dim", "dtype-i8"])
    def test_bad_header_value_rejected(self, edit, tmp_path, rng):
        p = tmp_path / "x.truth"
        save_truth({"00": rng.standard_normal((3, 3))}, p)
        edit_header(p, edit)
        with pytest.raises(ContainerFormatError):
            load_truth(p)

    def test_repeated_layer_rejected(self, tmp_path, rng):
        p = tmp_path / "x.truth"
        save_truth({"00": rng.standard_normal((3, 3)), "01": rng.standard_normal((3, 3))}, p)
        edit_header(p, lambda h: h.update(layers=["00", "00"]))
        with pytest.raises(ContainerFormatError, match="repeats layer '00'"):
            load_truth(p)

    def test_truncated_and_trailing(self, tmp_path, rng):
        p = tmp_path / "x.truth"
        save_truth({"00": rng.standard_normal((3, 3))}, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(ContainerFormatError, match="truncated"):
            load_truth(p)
        p.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(ContainerFormatError, match="trailing"):
            load_truth(p)


class TestKvConfig:
    def test_loads_basics(self):
        text = "# comment\n\na = 1\nb = two words\n  c=3\n"
        assert kvconfig.loads(text) == {"a": "1", "b": "two words", "c": "3"}

    def test_loads_errors_name_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            kvconfig.loads("no equals sign")
        with pytest.raises(ValueError, match="line 2"):
            kvconfig.loads("a = 1\n= empty key")
        with pytest.raises(ValueError, match="duplicate"):
            kvconfig.loads("a = 1\na = 2")

    def test_dumps_round_trip(self):
        entries = {"x": "1", "why": "because reasons"}
        assert kvconfig.loads(kvconfig.dumps(entries)) == entries

    def test_as_floats(self):
        assert kvconfig.as_floats("1, 2.5,3") == [1.0, 2.5, 3.0]
        assert kvconfig.as_floats("") == []
        assert kvconfig.as_floats("  ") == []
        with pytest.raises(ValueError):
            kvconfig.as_floats("1, x")
