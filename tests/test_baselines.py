import numpy as np
import pytest

from grfsq.baselines import (
    BaselineConfig,
    Codebook,
    baseline_bitrate,
    baseline_encode,
    baseline_utilization,
    codebook_from_bytes,
    codebook_to_bytes,
    fit_codebooks,
    kmeans_fit,
)
from grfsq.errors import ConfigMismatch, CorruptStream, InvalidConfig


def two_blobs(n_per=200, seed=30):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.1, size=(n_per, 2)) + np.array([5.0, 0.0])
    b = rng.normal(0, 0.1, size=(n_per, 2)) + np.array([-5.0, 0.0])
    return np.concatenate([a, b])


class TestBaselineConfig:
    def test_scheme_shape_rules(self):
        BaselineConfig("vq", 8)
        BaselineConfig("gvq", 8, groups=4)
        BaselineConfig("rvq", 8, residuals=4)
        BaselineConfig("grvq", 8, groups=2, residuals=2)
        with pytest.raises(InvalidConfig):
            BaselineConfig("vq", 8, groups=2)
        with pytest.raises(InvalidConfig):
            BaselineConfig("gvq", 8, groups=2, residuals=2)
        with pytest.raises(InvalidConfig):
            BaselineConfig("rvq", 8, groups=2, residuals=2)
        with pytest.raises(InvalidConfig):
            BaselineConfig("soundstream", 8)

    def test_counts_past_what_a_fit_can_honour(self):
        BaselineConfig("rvq", 8, residuals=255, kmeans_iters=0)
        with pytest.raises(InvalidConfig, match="255"):
            BaselineConfig("rvq", 8, residuals=256)
        with pytest.raises(InvalidConfig, match="kmeans_iters"):
            BaselineConfig("vq", 8, kmeans_iters=-1)

    def test_codebook_validation(self):
        with pytest.raises(InvalidConfig):
            Codebook(np.array([[np.nan, 0.0]]))
        with pytest.raises(InvalidConfig):
            Codebook(np.zeros((0, 3)))


class TestKmeans:
    def test_single_centroid_is_mean(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(50, 3))
        book = kmeans_fit(data, 1, 5, seed=0)
        assert np.allclose(book.entries[0], data.mean(axis=0))

    def test_exact_recovery_of_repeated_points(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        data = np.repeat(points, 40, axis=0)
        book = kmeans_fit(data, 3, 20, seed=1)
        recovered = set(map(tuple, np.round(book.entries, 9)))
        assert recovered == set(map(tuple, points))
        labels = np.argmin(((data[:, None, :] - book.entries[None]) ** 2).sum(-1), axis=1)
        assert ((data - book.entries[labels]) ** 2).sum() == 0.0

    def test_two_blob_recovery(self):
        data = two_blobs()
        book = kmeans_fit(data, 2, 25, seed=2)
        centers = book.entries[np.argsort(book.entries[:, 0])]
        assert np.all(np.abs(centers[0] - [-5.0, 0.0]) < 0.05)
        assert np.all(np.abs(centers[1] - [5.0, 0.0]) < 0.05)

    def test_objective_monotone_non_increasing(self):
        rng = np.random.default_rng(32)
        data = rng.normal(size=(400, 6))
        _, history = kmeans_fit(data, 13, 30, seed=3, return_history=True)
        assert len(history) >= 2
        assert all(history[i] >= history[i + 1] for i in range(len(history) - 1))

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        data = rng.normal(size=(150, 4))
        a = kmeans_fit(data, 7, 10, seed=4)
        b = kmeans_fit(data, 7, 10, seed=4)
        assert np.array_equal(a.entries, b.entries)

    def test_k_larger_than_data_rejected(self):
        with pytest.raises(InvalidConfig):
            kmeans_fit(np.zeros((3, 2)), 4, 5, seed=0)

    def test_empty_cluster_reseeding_keeps_k_centroids(self):
        # k close to n with heavy duplication forces empty clusters
        data = np.repeat(np.array([[0.0], [100.0]]), 5, axis=0)
        book = kmeans_fit(data, 4, 10, seed=5)
        assert book.entries.shape == (4, 1)
        assert np.all(np.isfinite(book.entries))


class TestEncode:
    def test_frame_equal_to_centroid(self):
        data = two_blobs()
        cfg = BaselineConfig("vq", 2, kmeans_iters=25, seed=6)
        books = fit_codebooks(data, cfg)
        centroid = books[0][0].entries[1]
        tokens, recon = baseline_encode(centroid[None, :], cfg, books)
        assert tokens.ravel().tolist() == [1]
        assert np.array_equal(recon[0], centroid)

    def test_matches_exhaustive_search_toy(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        cfg = BaselineConfig("vq", 2, kmeans_iters=10, seed=7)
        books = fit_codebooks(data, cfg)
        tokens, _ = baseline_encode(data, cfg, books)
        entries = books[0][0].entries
        for t in range(4):
            d2 = ((entries - data[t]) ** 2).sum(axis=1)
            assert tokens[t, 0, 0] == int(np.argmin(d2))

    def test_grvq_degenerates_to_vq(self):
        data = two_blobs(seed=34)
        vq = BaselineConfig("vq", 4, kmeans_iters=15, seed=8)
        grvq = BaselineConfig("grvq", 4, groups=1, residuals=1, kmeans_iters=15, seed=8)
        books_vq = fit_codebooks(data, vq)
        books_grvq = fit_codebooks(data, grvq)
        t1, r1 = baseline_encode(data, vq, books_vq)
        t2, r2 = baseline_encode(data, grvq, books_grvq)
        assert np.array_equal(t1, t2)
        assert np.array_equal(r1, r2)

    def test_rvq_stages_telescope(self):
        rng = np.random.default_rng(35)
        data = rng.normal(size=(300, 4))
        cfg = BaselineConfig("rvq", 8, residuals=3, kmeans_iters=10, seed=9)
        books = fit_codebooks(data, cfg)
        tokens, recon = baseline_encode(data, cfg, books)
        rebuilt = np.zeros_like(data)
        residual = data.copy()
        for r in range(3):
            entries = books[0][r].entries
            chosen = entries[tokens[:, 0, r]]
            # every stage token is the nearest centroid to the running residual
            for t in range(0, 300, 50):
                d2 = ((entries - residual[t]) ** 2).sum(axis=1)
                assert d2[tokens[t, 0, r]] <= d2.min() + 1e-9
            rebuilt += chosen
            residual -= chosen
        assert np.allclose(rebuilt, recon)

    def test_gvq_group_independence(self):
        rng = np.random.default_rng(36)
        data = rng.normal(size=(200, 6))
        cfg = BaselineConfig("gvq", 5, groups=3, kmeans_iters=10, seed=10)
        books = fit_codebooks(data, cfg)
        tokens, _ = baseline_encode(data, cfg, books)
        shuffled = data.copy()
        shuffled[:, 2:] = rng.permutation(shuffled[:, 2:], axis=0)
        tokens2, _ = baseline_encode(shuffled, cfg, books)
        assert np.array_equal(tokens[:, 0, :], tokens2[:, 0, :])

    def test_residual_stages_reduce_error(self):
        rng = np.random.default_rng(37)
        data = rng.normal(size=(400, 4))
        errs = []
        for residuals in (1, 2, 3):
            cfg = BaselineConfig("rvq", 16, residuals=residuals, kmeans_iters=10, seed=11)
            books = fit_codebooks(data, cfg)
            _, recon = baseline_encode(data, cfg, books)
            errs.append(((data - recon) ** 2).mean())
        assert errs[0] > errs[1] > errs[2]

    def test_dimension_mismatch(self):
        data = two_blobs()
        cfg = BaselineConfig("vq", 2, kmeans_iters=5, seed=12)
        books = fit_codebooks(data, cfg)
        with pytest.raises(ConfigMismatch):
            baseline_encode(np.zeros((4, 3)), cfg, books)
        with pytest.raises(ConfigMismatch):
            fit_codebooks(np.zeros((10, 5)), BaselineConfig("gvq", 2, groups=2))


class TestUtilizationAndRates:
    def test_single_centroid_usage(self):
        data = two_blobs(seed=38)
        cfg = BaselineConfig("vq", 4, kmeans_iters=15, seed=13)
        books = fit_codebooks(data, cfg)
        frame = books[0][0].entries[2][None, :]
        tokens, _ = baseline_encode(np.repeat(frame, 10, axis=0), cfg, books)
        report = baseline_utilization(tokens, cfg)
        assert report.mean_percent == 25.0  # 1 of 4

    def test_full_coverage(self):
        cfg = BaselineConfig("vq", 4)
        tokens = np.arange(4, dtype=np.int64).reshape(4, 1, 1)
        assert baseline_utilization(tokens, cfg).mean_percent == 100.0

    def test_empty_flag(self):
        cfg = BaselineConfig("vq", 4)
        report = baseline_utilization(np.zeros((0, 1, 1), dtype=np.int64), cfg)
        assert report.empty and report.mean_percent == 0.0

    def test_bitrate_accounting(self):
        import math

        cfg = BaselineConfig("grvq", 1024, groups=12, residuals=4)
        assert baseline_bitrate(cfg, 25.0) == 12 * 4 * math.log2(1024) * 25
        assert baseline_bitrate(BaselineConfig("vq", 2), 1.0) == 1.0


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(39)
        entries = rng.normal(size=(6, 3)).astype(np.float32).astype(np.float64)
        book = Codebook(entries)
        blob = codebook_to_bytes(book)
        assert len(blob) == 8 + 4 * 6 * 3
        got = codebook_from_bytes(blob)
        assert got.k == 6 and got.dim == 3
        assert np.array_equal(got.entries, entries)

    def test_rejects_malformed_blobs(self):
        with pytest.raises(CorruptStream):
            codebook_from_bytes(b"\x01")
        blob = codebook_to_bytes(Codebook(np.zeros((2, 2))))
        with pytest.raises(CorruptStream):
            codebook_from_bytes(blob[:-1])
