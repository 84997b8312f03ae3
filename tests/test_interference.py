"""Subspace interference scores vs hand-assembled formulas."""

import json
import tracemalloc

import numpy as np
import pytest

from adapterfuse import (
    AlsOptions,
    CPFactors,
    InterferenceReport,
    ShapeMismatchError,
    cp_sti,
    layer_profile,
    sti,
)
from adapterfuse import interference

from conftest import make_library


def sti_oracle(deltas, k):
    """Assemble the score from LAPACK factors; L1 is sign-convention free."""
    us, ss, vs = [], [], []
    for d in deltas:
        u, s, vt = np.linalg.svd(d, full_matrices=False)
        us.append(u[:, :k])
        ss.append(s[:k])
        vs.append(vt[:k].T)
    cu, cv, cs = np.hstack(us), np.hstack(vs), np.concatenate(ss)
    n = cs.size
    gu = cu.T @ cu - np.eye(n)
    gv = cv.T @ cv - np.eye(n)
    return float(np.abs((gu * cs) @ gv).sum())


def unit_cols(*cols):
    return np.column_stack(cols)


def correlated_pair(dim, rho, e0=0, e1=1):
    """Two unit vectors with inner product rho."""
    a = np.zeros(dim)
    a[e0] = 1.0
    b = np.zeros(dim)
    b[e0] = rho
    b[e1] = np.sqrt(1 - rho * rho)
    return unit_cols(a, b)


class TestSti:
    def test_matches_dense_oracle(self, rng):
        for k in (1, 2):
            deltas = [rng.standard_normal((7, 6)) for _ in range(3)]
            assert sti(deltas, k) == pytest.approx(sti_oracle(deltas, k), abs=1e-9)

    def test_orthogonal_supports_score_zero(self):
        d1 = np.zeros((6, 6))
        d1[:3, :3] = np.random.default_rng(0).standard_normal((3, 3))
        d2 = np.zeros((6, 6))
        d2[3:, 3:] = np.random.default_rng(1).standard_normal((3, 3))
        assert sti([d1, d2], 2) == pytest.approx(0.0, abs=1e-9)

    def test_identical_rank_one_pair(self):
        # two copies of sigma·u vᵀ at k=1: each cross-gram deviation is the
        # 2x2 flip matrix, so the product is sigma·I and the L1 sums to 2·sigma
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        sigma = 1.75
        d = sigma * np.outer(u, v)
        assert sti([d, d], 1) == pytest.approx(2 * sigma, abs=1e-12)

    def test_scale_linearity(self, rng):
        deltas = [rng.standard_normal((5, 5)) for _ in range(2)]
        base = sti(deltas, 1)
        assert sti([3.0 * d for d in deltas], 1) == pytest.approx(3 * base, rel=1e-9)

    def test_validation(self, rng):
        d = rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            sti([d], 1)
        with pytest.raises(ValueError):
            sti([d, d], 0)
        with pytest.raises(ShapeMismatchError):
            sti([d, rng.standard_normal((4, 5))], 1)

    def test_k_above_rank_names_the_delta(self, rng):
        full = rng.standard_normal((5, 5))
        rank1 = np.outer(rng.standard_normal(5), rng.standard_normal(5))
        with pytest.raises(ValueError, match=r"k=3.*rank 1.*delta 1"):
            sti([full, rank1], 3)

    def test_generator_input(self, rng):
        deltas = [rng.standard_normal((7, 6)) for _ in range(3)]
        assert sti((d for d in deltas), 2) == sti(deltas, 2)

    def test_peak_is_one_delta_and_its_svd(self):
        # only the k kept columns of each task's SVD outlive it, and a task's
        # delta and SVD are dropped before the next is made: one delta, U and
        # V (flipped in place) measure ~3.6 slices, and 8 tasks add 0.35
        # slice to 2 (all of U and V kept would add ~10 slices, the previous
        # task's delta and SVD kept alive ~1.8); the deltas are made as sti
        # takes them, so they count
        slice_bytes = 128 * 96 * 8

        def peak(n):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                sti((rng.standard_normal((128, 96)) for _ in range(n)), 3)
                return tracemalloc.get_traced_memory()[1] / slice_bytes
            finally:
                tracemalloc.stop()

        two, eight = peak(2), peak(8)
        assert eight < two + 2 and eight < 4.5, (two, eight)

    def test_validation_of_generator_input(self, rng):
        d = rng.standard_normal((4, 4))
        rank1 = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        for few in ([], [d]):
            with pytest.raises(ValueError, match="at least 2 tasks"):
                sti((x for x in few), 1)
        with pytest.raises(ShapeMismatchError, match="delta 1"):
            sti((x for x in [d, rng.standard_normal((4, 5))]), 1)
        with pytest.raises(ValueError, match=r"k=2.*rank 1.*delta 1"):
            sti((x for x in [d, rank1]), 2)


class TestCpSti:
    def make_factors(self, a, b, c, lam=None):
        R = a.shape[1]
        return CPFactors(
            rank_R=R,
            lam=np.ones(R) if lam is None else np.asarray(lam, dtype=float),
            a_task=a, b_row=b, c_col=c,
        )

    def test_rank_one_is_exactly_zero(self, rng):
        f = self.make_factors(
            rng.standard_normal((3, 1)), rng.standard_normal((5, 1)),
            rng.standard_normal((4, 1)))
        assert cp_sti(f) == 0.0

    def test_orthogonal_factors_zero(self):
        f = self.make_factors(np.eye(3, 2), np.eye(5, 2), np.eye(4, 2))
        assert cp_sti(f) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_r2(self):
        # off-diagonal gram deviations 0.5, 0.2, 0.1 multiply to 0.01; the
        # two symmetric entries sum to 0.02
        f = self.make_factors(
            correlated_pair(3, 0.5), correlated_pair(5, 0.2), correlated_pair(4, 0.1))
        assert cp_sti(f) == pytest.approx(0.02, abs=1e-12)

    def test_column_scale_invariance(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((5, 2))
        c = rng.standard_normal((4, 2))
        base = cp_sti(self.make_factors(a, b, c))
        scaled = cp_sti(self.make_factors(a * [2.0, 5.0], b, c * [0.1, 3.0]))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestLayerProfile:
    def test_rows_match_direct_calls(self):
        lib = make_library(n_tasks=3, n_layers=2, d_in=10, d_out=9, rank=3, seed=1)
        report = layer_profile(lib, k=2, R=2, opts=AlsOptions(max_iters=60))
        assert report.k == 2 and report.R == 2
        assert [r[0] for r in report.per_layer] == list(lib.layers)
        for layer_id, s, _ in report.per_layer:
            deltas = [lib.deltas[(t, layer_id)].materialize() for t in lib.tasks]
            assert s == pytest.approx(sti(deltas, 2), abs=1e-12)
            assert np.isfinite(_)

    def test_sti_takes_the_deltas_one_at_a_time(self, monkeypatch):
        lib = make_library(n_tasks=3, n_layers=2, seed=2)
        inputs = []

        def recording_sti(deltas, k):
            inputs.append(deltas)
            return sti(deltas, k)

        monkeypatch.setattr(interference, "sti", recording_sti)
        layer_profile(lib, k=1, R=2)
        assert len(inputs) == 2
        assert all(iter(x) is x for x in inputs)  # iterators, not lists of materialized deltas

    def test_deterministic(self):
        lib = make_library(seed=3)
        r1 = layer_profile(lib, k=1, R=2)
        r2 = layer_profile(lib, k=1, R=2)
        assert r1.to_csv() == r2.to_csv()


class TestReportFormats:
    report = InterferenceReport(
        per_layer=(("00", 1.5, 0.25), ("01", 0.125, 0.0)), k=2, R=3)

    def test_csv(self):
        lines = self.report.to_csv().splitlines()
        assert lines[0] == "layer_id,sti,cp_sti"
        assert lines[1] == "00,1.5,0.25"
        assert len(lines) == 3

    def test_json(self):
        blob = self.report.to_json()
        assert blob.endswith("\n")
        doc = json.loads(blob)
        assert doc["k"] == 2 and doc["R"] == 3
        assert doc["layers"][1] == {"layer_id": "01", "sti": 0.125, "cp_sti": 0.0}

    def test_text_mentions_all_layers(self):
        txt = self.report.to_text()
        assert "00" in txt and "01" in txt and "1.5" in txt
