"""K-means behaviour, manifest partitioning, and the .emb container."""

import json

import numpy as np
import pytest

from adapterfuse import (
    ClusterModel,
    ContainerFormatError,
    EmbeddingSet,
    kmeans_fit,
    load_embeddings,
    partition_manifest,
    save_embeddings,
)
from adapterfuse.clustering import assign_many, load_manifest, save_manifest

from conftest import blob_points, drop_header_key


def blob_set(**kw):
    vectors, labels = blob_points(**kw)
    ids = tuple(f"s{i}" for i in range(len(labels)))
    return EmbeddingSet(ids=ids, vectors=vectors), labels


class TestEmbeddingSet:
    def test_coercion_and_props(self):
        e = EmbeddingSet(ids=[1, 2], vectors=np.zeros((2, 3)))
        assert e.ids == ("1", "2")
        assert e.vectors.dtype == np.float32
        assert e.n == 2 and e.dim == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSet(ids=["a"], vectors=np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingSet(ids=["a", "b"], vectors=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="unique"):
            EmbeddingSet(ids=["a", "a"], vectors=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(ids=["a"], vectors=np.array([[np.inf, 0.0]]))


class TestKmeansFit:
    def test_two_blobs_pure(self):
        e, truth = blob_set()
        model = kmeans_fit(e, K=2, sample_fraction=0.5, seed=0)
        labels = assign_many(model, e.vectors)
        # each predicted cluster maps to exactly one true blob
        for j in (0, 1):
            assert len(set(truth[labels == j])) == 1
        assert set(labels) == {0, 1}

    def test_k1_centroid_is_mean(self):
        e, _ = blob_set()
        model = kmeans_fit(e, K=1, sample_fraction=1.0, seed=4)
        want = np.asarray(e.vectors, dtype=np.float64).mean(axis=0)
        np.testing.assert_allclose(model.centroids[0], want, atol=1e-6)

    def test_inertia_recomputable(self):
        e, _ = blob_set()
        model = kmeans_fit(e, K=3, sample_fraction=1.0, seed=2)
        x = np.asarray(e.vectors, dtype=np.float64)
        d2 = ((x[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        assert model.inertia == pytest.approx(d2.min(axis=1).sum(), rel=1e-12)

    def test_lloyd_prefix_inertia_monotone(self):
        # same seed replays the same subsample and seeding, so max_iters=i
        # is a strict prefix of max_iters=i+1; the objective cannot rise
        e, _ = blob_set(spread=2.0, seed=11)
        inertias = [
            kmeans_fit(e, K=4, sample_fraction=1.0, seed=5, max_iters=i).inertia
            for i in range(1, 12)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_deterministic(self):
        e, _ = blob_set()
        m1 = kmeans_fit(e, K=2, seed=9)
        m2 = kmeans_fit(e, K=2, seed=9)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)
        assert m1.inertia == m2.inertia and m1.iterations_run == m2.iterations_run

    def test_coincident_points_dont_crash(self):
        e = EmbeddingSet(ids=[str(i) for i in range(6)], vectors=np.ones((6, 2)))
        model = kmeans_fit(e, K=2, sample_fraction=1.0, seed=0)
        assert model.centroids.shape == (2, 2)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeding_survives_roundoff_in_distances(self, seed):
        # points that sit on a seeding centroid get expanded-form squared
        # distances a hair below zero; k-means++ must still draw from them
        rng = np.random.default_rng(seed)
        centres = 4.0 * rng.standard_normal((8, 128))
        x = centres[rng.integers(8, size=1000)] + rng.standard_normal((1000, 128))
        e = EmbeddingSet(ids=tuple(range(1000)), vectors=x)
        m = kmeans_fit(e, 8, seed=seed)
        assert m.centroids.shape == (8, 128) and np.isfinite(m.inertia)

    def test_lloyd_survives_roundoff_in_inertia(self):
        # far from the origin the expanded-form distances round, so a Lloyd
        # step can raise the inertia a little; the fit must still finish
        rng = np.random.default_rng(80)
        x = 1e4 + 0.01 * rng.standard_normal((400, 8))
        e = EmbeddingSet(ids=tuple(range(400)), vectors=x)
        m = kmeans_fit(e, K=12, sample_fraction=1.0, seed=80)
        assert m.centroids.shape == (12, 8) and np.isfinite(m.inertia)

    def test_k_equals_n(self):
        e, _ = blob_set(n_per=3)
        model = kmeans_fit(e, K=6, sample_fraction=1.0, seed=1, max_iters=50)
        assert model.K == 6
        assert model.inertia == pytest.approx(0.0, abs=1e-9)

    def test_cosine_scale_invariance(self):
        e, _ = blob_set()
        model = kmeans_fit(e, K=2, sample_fraction=1.0, seed=0, distance="cosine")
        v = np.asarray(e.vectors[7], dtype=np.float64)
        assert assign_many(model, v[None])[0] == assign_many(model, 40.0 * v[None])[0]

    def test_validation(self):
        e, _ = blob_set(n_per=4)
        with pytest.raises(ValueError):
            kmeans_fit(e, K=0)
        with pytest.raises(ValueError):
            kmeans_fit(e, K=9)
        with pytest.raises(ValueError):
            kmeans_fit(e, K=2, sample_fraction=0.0)
        with pytest.raises(ValueError):
            kmeans_fit(e, K=2, distance="manhattan")
        with pytest.raises(ValueError):
            kmeans_fit(e, K=2, max_iters=0)
        with pytest.raises(ValueError, match="seed"):
            kmeans_fit(e, K=2, seed=-1)

    def test_subsample_never_below_k(self):
        # tiny fraction of 8 points still yields K=3 trainable centroids
        e, _ = blob_set(n_per=4)
        model = kmeans_fit(e, K=3, sample_fraction=0.01, seed=0)
        assert model.centroids.shape[0] == 3


class TestAssign:
    def test_nearest_centroid(self):
        model = ClusterModel(
            K=2, centroids=np.array([[0.0, 0.0], [10.0, 0.0]]),
            inertia=0.0, iterations_run=1, seed=0)
        # an exact tie goes to the lower index
        assert list(assign_many(model, [[1.0, 1.0], [9.0, 1.0], [5.0, 0.0]])) == [0, 1, 0]

    def test_assign_many_matches_scalar(self):
        e, _ = blob_set()
        model = kmeans_fit(e, K=2, seed=0)
        many = assign_many(model, e.vectors)
        for i in range(0, e.n, 7):
            assert many[i] == assign_many(model, e.vectors[i][None])[0]

    def test_dim_mismatch(self):
        model = ClusterModel(
            K=1, centroids=np.zeros((1, 3)), inertia=0.0, iterations_run=1, seed=0)
        with pytest.raises(ValueError, match="dim"):
            assign_many(model, np.zeros((4, 2)))

    def test_assign_many_rejects_non_matrix(self):
        model = ClusterModel(
            K=1, centroids=np.zeros((1, 3)), inertia=0.0, iterations_run=1, seed=0)
        for bad in (np.zeros(3), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError, match="2-D"):
                assign_many(model, bad)


class TestPartitionManifest:
    def test_disjoint_covering_ordered(self):
        e, _ = blob_set()
        model = kmeans_fit(e, K=2, seed=0)
        manifest = {sid: {"id": sid, "idx": i} for i, sid in enumerate(e.ids)}
        parts = partition_manifest(manifest, model, e)
        assert len(parts) == 2
        seen = [sid for part in parts for sid in part]
        assert sorted(seen) == sorted(manifest)
        assert len(seen) == len(set(seen))
        for part in parts:
            keys = list(part)
            assert keys == sorted(keys, key=lambda s: manifest[s]["idx"])

    def test_missing_embedding_names_ids(self):
        e, _ = blob_set(n_per=2)
        model = kmeans_fit(e, K=1, sample_fraction=1.0)
        manifest = {"nope": {"id": "nope"}}
        with pytest.raises(ValueError, match="nope"):
            partition_manifest(manifest, model, e)


class TestEmbContainer:
    def test_round_trip(self, tmp_path):
        e, _ = blob_set(n_per=5)
        p = tmp_path / "x.emb"
        save_embeddings(e, p)
        back = load_embeddings(p)
        assert back.ids == e.ids
        np.testing.assert_array_equal(back.vectors, e.vectors)

    def test_save_is_deterministic(self, tmp_path):
        e, _ = blob_set(n_per=5)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(e, p1)
        save_embeddings(e, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.emb"
        p.write_bytes(b"garbage\n")
        with pytest.raises(ContainerFormatError):
            load_embeddings(p)

    def test_wrong_format_tag(self, tmp_path):
        p = tmp_path / "x.emb"
        p.write_bytes(b'{"format": "cpf", "version": 1}\n')
        with pytest.raises(ContainerFormatError, match="not an emb"):
            load_embeddings(p)

    @pytest.mark.parametrize("key", ["n", "dim", "ids"])
    def test_missing_header_key_named(self, key, tmp_path):
        e, _ = blob_set(n_per=3)
        p = tmp_path / "x.emb"
        save_embeddings(e, p)
        drop_header_key(p, key)
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_embeddings(p)

    def test_truncated_payload(self, tmp_path):
        e, _ = blob_set(n_per=3)
        p = tmp_path / "x.emb"
        save_embeddings(e, p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ContainerFormatError, match="payload"):
            load_embeddings(p)


class TestManifestIO:
    def test_round_trip_and_order(self, tmp_path):
        recs = {
            "b": {"id": "b", "text": "two"},
            "a": {"id": "a", "text": "one", "extra": [1, 2]},
        }
        p = tmp_path / "m.jsonl"
        save_manifest(recs, p)
        back = load_manifest(p)
        assert back == recs
        assert list(back) == ["b", "a"]  # insertion order survives

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "x"}\n\n   \n{"id": "y"}\n')
        assert list(load_manifest(p)) == ["x", "y"]

    def test_missing_id_field(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "x"}\n{"text": "no id"}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2"):
            load_manifest(p)

    def test_record_not_an_object(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "x"}\n5\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: .*not a JSON object"):
            load_manifest(p)

    def test_line_not_json(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: not JSON"):
            load_manifest(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "x"}\n{"id": "x"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(p)

    def test_save_sorts_keys(self, tmp_path):
        p = tmp_path / "m.jsonl"
        save_manifest({"x": {"id": "x", "b": 1, "a": 2}}, p)
        line = p.read_text().strip()
        assert line == json.dumps({"a": 2, "b": 1, "id": "x"}, sort_keys=True)
