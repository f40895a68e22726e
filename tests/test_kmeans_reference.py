"""The grouped k-means path against the per-group reference it replaced.

Every scheme is a (groups x residuals) grid fit and encoded with all groups
of a stage at once; `reference_kmeans` walks the same grid one group and one
`kmeans_fit` at a time. Codebooks, distortion histories, tokens and
reconstructions must be equal bit for bit.
"""

import numpy as np
import pytest

import reference_kmeans as ref
from grfsq import baselines
from grfsq.baselines import BaselineConfig, _assign, baseline_encode, fit_codebooks, kmeans_fit


def _data(n: int, dim: int, distinct: int, seed: int) -> np.ndarray:
    """n rows drawn from `distinct` points, so with k near n clusters go empty."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(distinct, dim))
    return points[rng.integers(0, distinct, n)]


def _assert_grids_equal(data, cfg):
    got, want = fit_codebooks(data, cfg), ref.fit_codebooks(data, cfg)
    assert len(got) == len(want) == cfg.groups
    for row_got, row_want in zip(got, want):
        assert len(row_got) == len(row_want) == cfg.residuals
        for a, b in zip(row_got, row_want):
            assert np.array_equal(a.entries, b.entries)
    tokens, recon = baseline_encode(data, cfg, got)
    ref_tokens, ref_recon = ref.baseline_encode(data, cfg, want)
    assert np.array_equal(tokens, ref_tokens)
    assert np.array_equal(recon, ref_recon)


@pytest.mark.parametrize("groups", [1, 3, 12])
@pytest.mark.parametrize("residuals", [1, 2, 4])
def test_grid_matches_per_group_reference(groups, residuals):
    for seed in (0, 7):
        for n, k, distinct in ((24, 24, 8), (60, 7, 20), (90, 16, 90)):
            data = _data(n, groups * 2, distinct, seed + n)
            for iters in (0, 1, 8):
                cfg = BaselineConfig(
                    "grvq", k, groups=groups, residuals=residuals,
                    kmeans_iters=iters, seed=seed,
                )
                _assert_grids_equal(data, cfg)


def _block_rows(groups: int, k: int) -> int:
    """Rows per group in one `_assign` block, by the rule its docstring states."""
    return max(-(-baselines._MIN_ROWS // groups), baselines._CELLS // (groups * k))


@pytest.mark.parametrize("groups, k, n", [
    # the cell budget binds; ragged last blocks of 1 and 36 rows
    (12, 12, 2 * _block_rows(12, 12) + 1),
    (3, 12, 2 * _block_rows(3, 12) + 36),
    # the row floor binds: blocks of 22 rows per group, where the budget gives 21
    (3, 1000, 47 * _block_rows(3, 1000) + 5),
])
def test_rows_span_several_blocks(groups, k, n):
    assert n > _block_rows(groups, k) and n % _block_rows(groups, k)
    data = _data(n, groups * 3, n // 2, 40 + groups)
    _assert_grids_equal(data, BaselineConfig("grvq", k, groups=groups, residuals=2, seed=3))


@pytest.mark.parametrize("groups, residuals, dim", [(1, 1, 48), (1, 3, 48), (3, 2, 16)])
def test_groups_wider_than_8_dims(groups, residuals, dim):
    # numpy sums a row of 8 or more values pairwise, while k-means++ adds
    # coordinate planes one after another: the picks must still agree
    for seed in (0, 7):
        data = _data(300, groups * dim, 120, seed + dim)
        for k in (24, 160):  # 160 > 120 distinct rows: uniform picks and empty clusters
            cfg = BaselineConfig("grvq", k, groups=groups, residuals=residuals, seed=seed)
            _assert_grids_equal(data, cfg)


def test_assign_is_nearest_centroid_per_group():
    rng = np.random.default_rng(41)
    data, centers = rng.normal(size=(5, 700, 3)), rng.normal(size=(5, 9, 3))
    labels = _assign(data, centers)
    for g in range(5):
        assert np.array_equal(labels[g], ref._assign(data[g], centers[g]))


@pytest.mark.parametrize("n, dim, k, iters, distinct", [
    (50, 3, 1, 5, 50),
    (120, 2, 3, 20, 3),
    (400, 6, 13, 30, 400),
    (150, 4, 7, 10, 150),
    (10, 1, 4, 10, 2),
    (30, 2, 30, 8, 10),
    (40, 5, 6, 0, 40),
    (300, 48, 24, 8, 300),
    (200, 48, 60, 8, 50),
    (1000, 3, 100, 8, 1000),  # blocks of 655 rows, as the cell budget allows
    (2200, 4, 1100, 2, 2200),  # blocks of 64 rows, the floor, where the budget allows 59
])
def test_kmeans_fit_is_the_one_group_case(n, dim, k, iters, distinct):
    data = _data(n, dim, distinct, n + k)
    for seed in (0, 5):
        book, history = kmeans_fit(data, k, iters, seed, return_history=True)
        ref_book, ref_history = ref.kmeans_fit(data, k, iters, seed, return_history=True)
        assert np.array_equal(book.entries, ref_book.entries)
        assert history.dtype == ref_history.dtype and history.shape == ref_history.shape
        assert np.array_equal(history, ref_history)
        assert np.array_equal(kmeans_fit(data, k, iters, seed).entries, ref_book.entries)


def test_groups_stop_on_their_own_iteration():
    # groups of very different difficulty converge after different numbers of
    # Lloyd steps; each keeps its own history and NaN after it has stopped
    rng = np.random.default_rng(42)
    blobs = np.repeat(np.array([[0.0, 0.0], [9.0, 9.0], [0.0, 9.0]]), 30, axis=0)
    data = np.stack([blobs, rng.normal(size=(90, 2)), _data(90, 2, 12, 43)])
    seeds = [11, 12, 13]
    centers, history = baselines._kmeans(data, 6, 25, seeds, track_history=True)
    lengths = []
    for g, seed in enumerate(seeds):
        book, ref_history = ref.kmeans_fit(data[g], 6, 25, seed, return_history=True)
        assert np.array_equal(centers[g], book.entries)
        lengths.append(len(ref_history))
        assert np.array_equal(history[: len(ref_history), g], ref_history)
        assert np.isnan(history[len(ref_history) :, g]).all()
    assert len(set(lengths)) > 1 and len(history) == max(lengths)
