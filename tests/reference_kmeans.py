"""The per-group k-means baselines, kept as the definition the grouped path
in `grfsq.baselines` must match bit for bit: one `kmeans_fit` per (group,
stage), `np.add.at` centroid sums, and separate group loops in fit and
encode."""

from __future__ import annotations

import numpy as np

from grfsq.baselines import BaselineConfig, Codebook
from grfsq.errors import ConfigMismatch, InvalidConfig
from grfsq.quantizer import _frames_array

_CHUNK = 2048


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest centroid per row by expanded squared distance; ties -> lowest index."""
    labels = np.empty(len(data), dtype=np.int64)
    c2 = (centers**2).sum(axis=1)
    for s in range(0, len(data), _CHUNK):
        e = min(len(data), s + _CHUNK)
        d = c2[None, :] - 2.0 * (data[s:e] @ centers.T)
        labels[s:e] = d.argmin(axis=1)
    return labels


def kmeans_fit(data, k: int, iters: int, seed: int, return_history: bool = False):
    """Seeded k-means: k-means++ init then Lloyd until stable or iters.

    Empty clusters are reseeded to the point currently farthest from its
    assigned centroid. Deterministic given (data, k, iters, seed). With
    return_history=True also returns the per-iteration distortion so
    monotonicity can be checked.
    """
    arr = _frames_array(data)
    n, dim = arr.shape
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    if k > n:
        raise InvalidConfig(f"k ({k}) exceeds the number of data points ({n})")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, dim))
    centers[0] = arr[rng.integers(n)]
    d2 = ((arr - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = rng.choice(n, p=d2 / total)
        else:
            pick = rng.integers(n)
        centers[j] = arr[pick]
        np.minimum(d2, ((arr - centers[j]) ** 2).sum(axis=1), out=d2)

    history = []
    prev_labels = None
    for _ in range(max(iters, 0)):
        labels = _assign(arr, centers)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        dists = ((arr - centers[labels]) ** 2).sum(axis=1)
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(dists))
            centers[j] = arr[far]
            labels[far] = j
            dists[far] = 0.0
            counts[j] = 1
        history.append(float(dists.sum()))
        sums = np.zeros((k, dim))
        np.add.at(sums, labels, arr)
        counts = np.bincount(labels, minlength=k)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
        prev_labels = labels

    book = Codebook(centers)
    if return_history:
        return book, np.asarray(history)
    return book


def _codebook_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def fit_codebooks(frames, cfg: BaselineConfig) -> list[list[Codebook]]:
    """Train the (groups x residuals) codebook grid for a scheme.

    Residual stages are fit on the running residuals of the training data,
    stage by stage, exactly as encoding will see them.
    """
    arr = _frames_array(frames)
    if arr.shape[1] % cfg.groups:
        raise ConfigMismatch(
            f"dimension {arr.shape[1]} not divisible into {cfg.groups} groups"
        )
    dg = arr.shape[1] // cfg.groups
    seeds = _codebook_seeds(cfg.seed, cfg.groups * cfg.residuals)
    books: list[list[Codebook]] = []
    for g in range(cfg.groups):
        residual = arr[:, g * dg : (g + 1) * dg].copy()
        row = []
        for r in range(cfg.residuals):
            book = kmeans_fit(
                residual, cfg.codebook_size, cfg.kmeans_iters, seeds[g * cfg.residuals + r]
            )
            row.append(book)
            residual -= book.entries[_assign(residual, book.entries)]
        books.append(row)
    return books


def baseline_encode(
    frames, cfg: BaselineConfig, codebooks: list[list[Codebook]]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode frames; returns (tokens (T, groups, residuals), reconstructions)."""
    arr = _frames_array(frames)
    T, D = arr.shape
    if D % cfg.groups:
        raise ConfigMismatch(f"dimension {D} not divisible into {cfg.groups} groups")
    dg = D // cfg.groups
    if len(codebooks) != cfg.groups or any(len(row) != cfg.residuals for row in codebooks):
        raise ConfigMismatch("codebook grid does not match scheme shape")
    for row in codebooks:
        for book in row:
            if book.dim != dg:
                raise ConfigMismatch(
                    f"codebook dimension {book.dim} != group dimension {dg}"
                )
            if book.k != cfg.codebook_size:
                raise ConfigMismatch(f"codebook size {book.k} != {cfg.codebook_size}")
    tokens = np.empty((T, cfg.groups, cfg.residuals), dtype=np.int64)
    recon = np.zeros((T, D))
    for g in range(cfg.groups):
        lo = g * dg
        residual = arr[:, lo : lo + dg].copy()
        for r in range(cfg.residuals):
            entries = codebooks[g][r].entries
            labels = _assign(residual, entries)
            chosen = entries[labels]
            recon[:, lo : lo + dg] += chosen
            residual -= chosen
            tokens[:, g, r] = labels
    return tokens, recon
