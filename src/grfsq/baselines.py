"""Learned-codebook baselines: VQ, group VQ, residual VQ and group-residual VQ.

Codebooks are fit with seeded k-means (k-means++ init, Lloyd iterations,
empty clusters reseeded to the farthest point) so ablations against the
grid quantizer run on identical data without any neural training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, CorruptStream, InvalidConfig
from .quantizer import UtilizationReport, _frames_array, _token_bitrate, _utilization

SCHEMES = ("vq", "gvq", "rvq", "grvq")

_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class Codebook:
    entries: np.ndarray  # (k, dim)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise InvalidConfig(f"codebook must be (k, dim) with k >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidConfig("codebook contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class BaselineConfig:
    scheme: str
    codebook_size: int
    groups: int = 1
    residuals: int = 1
    kmeans_iters: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidConfig(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.codebook_size < 1 or self.groups < 1 or self.residuals < 1:
            raise InvalidConfig("codebook_size, groups and residuals must be positive")
        if self.residuals > 255:
            raise InvalidConfig(f"residuals ({self.residuals}) exceed the 255-stage limit")
        if self.kmeans_iters < 0:
            raise InvalidConfig(f"kmeans_iters must be non-negative, got {self.kmeans_iters}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if self.scheme == "vq" and (self.groups != 1 or self.residuals != 1):
            raise InvalidConfig("vq uses exactly one group and one residual stage")
        if self.scheme == "gvq" and self.residuals != 1:
            raise InvalidConfig("gvq uses exactly one residual stage")
        if self.scheme == "rvq" and self.groups != 1:
            raise InvalidConfig("rvq uses exactly one group")


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest centroid per row of each group, (G, n, d) x (G, k, d) -> (G, n),
    by expanded squared distance; ties -> lowest index. Blocks of _CHUNK / G
    rows keep the (G, rows, k) distance block near _CHUNK x k values."""
    G, n, _ = data.shape
    labels = np.empty((G, n), dtype=np.int64)
    c2 = (centers**2).sum(axis=2)[:, None, :]
    centers_t = centers.transpose(0, 2, 1)
    step = max(1, _CHUNK // G)
    for s in range(0, n, step):
        d = c2 - 2.0 * np.matmul(data[:, s : s + step], centers_t)
        labels[:, s : s + step] = d.argmin(axis=2)
    return labels


def _gather(centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each group's chosen centroids: (G, k, d), (G, n) -> (G, n, d)."""
    return np.take_along_axis(centers, labels[..., None], axis=1)


def _kmeans(data: np.ndarray, k: int, iters: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """k-means on every group of (G, n, d) data at once, one seed per group.

    Returns (centers (G, k, d), distortion history (iterations, G)). Each
    group draws from its own generator and stops updating once its labels
    repeat (its later history entries are NaN), so every group's centers
    equal those of a one-group run.
    """
    G, n, dim = data.shape
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    if k > n:
        raise InvalidConfig(f"k ({k}) exceeds the number of data points ({n})")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(G)

    centers = np.empty((G, k, dim))
    centers[:, 0] = data[rows, [rng.integers(n) for rng in rngs]]
    d2 = ((data - centers[:, :1]) ** 2).sum(axis=2)
    for j in range(1, k):
        total = d2.sum(axis=1)
        picks = [
            rng.choice(n, p=d2[g] / total[g]) if total[g] > 0 else rng.integers(n)
            for g, rng in enumerate(rngs)
        ]
        centers[:, j] = data[rows, picks]
        np.minimum(d2, ((data - centers[:, j, None]) ** 2).sum(axis=2), out=d2)

    history = []
    active = np.ones(G, dtype=bool)
    offsets = rows[:, None] * k  # label -> bin of the flattened (G, k) grid
    prev_labels = None
    for _ in range(max(iters, 0)):
        labels = _assign(data, centers)
        if prev_labels is not None:
            active &= (labels != prev_labels).any(axis=1)
            if not active.any():
                break
        dists = ((data - _gather(centers, labels)) ** 2).sum(axis=2)
        counts = np.bincount((offsets + labels).ravel(), minlength=G * k).reshape(G, k)
        for g, j in zip(*np.nonzero((counts == 0) & active[:, None])):
            far = int(np.argmax(dists[g]))
            centers[g, j] = data[g, far]
            labels[g, far] = j
            dists[g, far] = 0.0
        history.append(np.where(active, dists.sum(axis=1), np.nan))
        slots = (offsets + labels).ravel()
        counts = np.bincount(slots, minlength=G * k).reshape(G, k)
        # one coordinate at a time; bincount adds each bin's rows in row order
        sums = np.stack([np.bincount(slots, w, G * k) for w in data.reshape(-1, dim).T], axis=1)
        update = (counts > 0) & active[:, None]
        centers[update] = sums.reshape(G, k, dim)[update] / counts[update][:, None]
        prev_labels = labels
    return centers, np.reshape(history, (-1, G))


def kmeans_fit(data, k: int, iters: int, seed: int, return_history: bool = False):
    """Seeded k-means: k-means++ init then Lloyd until stable or iters.

    Empty clusters are reseeded to the point currently farthest from its
    assigned centroid. Deterministic given (data, k, iters, seed). With
    return_history=True also returns the per-iteration distortion so
    monotonicity can be checked.
    """
    centers, history = _kmeans(_frames_array(data)[None], k, iters, [seed])
    book = Codebook(centers[0])
    if return_history:
        return book, history[:, 0]
    return book


def _codebook_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def _split_groups(frames, groups: int) -> np.ndarray:
    """Frames (T, D) as a fresh (groups, T, D / groups) array."""
    arr = _frames_array(frames)
    T, D = arr.shape
    if D % groups:
        raise ConfigMismatch(f"dimension {D} not divisible into {groups} groups")
    return arr.reshape(T, groups, D // groups).transpose(1, 0, 2).copy()


def fit_codebooks(frames, cfg: BaselineConfig) -> list[list[Codebook]]:
    """Train the (groups x residuals) codebook grid for a scheme.

    Residual stages are fit on the running residuals of the training data,
    stage by stage, exactly as encoding will see them. All groups of a
    stage are fit at once; group g, stage r is seeded by seeds[g * R + r].
    """
    residual = _split_groups(frames, cfg.groups)
    seeds = _codebook_seeds(cfg.seed, cfg.groups * cfg.residuals)
    stages = []
    for r in range(cfg.residuals):
        stage_seeds = seeds[r :: cfg.residuals]
        centers = _kmeans(residual, cfg.codebook_size, cfg.kmeans_iters, stage_seeds)[0]
        residual -= _gather(centers, _assign(residual, centers))
        stages.append(centers)
    return [[Codebook(stage[g]) for stage in stages] for g in range(cfg.groups)]


def baseline_encode(
    frames, cfg: BaselineConfig, codebooks: list[list[Codebook]]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode frames; returns (tokens (T, groups, residuals), reconstructions)."""
    residual = _split_groups(frames, cfg.groups)
    G, T, dg = residual.shape
    if len(codebooks) != G or any(len(row) != cfg.residuals for row in codebooks):
        raise ConfigMismatch("codebook grid does not match scheme shape")
    shapes = {book.entries.shape for row in codebooks for book in row}
    if shapes != {(cfg.codebook_size, dg)}:
        raise ConfigMismatch(f"codebook shapes {sorted(shapes)} != ({cfg.codebook_size}, {dg})")
    tokens = np.empty((T, G, cfg.residuals), dtype=np.int64)
    recon = np.zeros((G, T, dg))
    for r in range(cfg.residuals):
        centers = np.stack([row[r].entries for row in codebooks])
        labels = _assign(residual, centers)
        chosen = _gather(centers, labels)
        recon += chosen
        residual -= chosen
        tokens[:, :, r] = labels.T
    return tokens, recon.transpose(1, 0, 2).reshape(T, G * dg)


def baseline_utilization(tokens, cfg: BaselineConfig) -> UtilizationReport:
    """Coverage of each (group, residual) codebook, in percent."""
    return _utilization(tokens, cfg.groups, cfg.residuals, cfg.codebook_size)


def baseline_bitrate(cfg: BaselineConfig, fps: float) -> float:
    """groups * residuals * log2(k) * fps, the grid quantizer's accounting."""
    return _token_bitrate(cfg.groups * cfg.residuals, cfg.codebook_size, fps)


def codebook_to_bytes(book: Codebook) -> bytes:
    """Serialize as a (k, dim) u32 header plus row-major f32 entries."""
    head = struct.pack("<II", book.k, book.dim)
    return head + book.entries.astype("<f4").tobytes()


def codebook_from_bytes(buf: bytes) -> Codebook:
    if len(buf) < 8:
        raise CorruptStream("codebook blob shorter than its header")
    k, dim = struct.unpack("<II", buf[:8])
    expected = 8 + 4 * k * dim
    if len(buf) != expected:
        raise CorruptStream(f"codebook blob is {len(buf)} bytes, expected {expected}")
    entries = np.frombuffer(buf[8:], dtype="<f4").astype(np.float64).reshape(k, dim)
    return Codebook(entries)
