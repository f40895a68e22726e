"""Learned-codebook baselines: VQ, group VQ, residual VQ and group-residual VQ.

Codebooks are fit with seeded k-means (k-means++ init, Lloyd iterations,
empty clusters reseeded to the farthest point) so ablations against the
grid quantizer run on identical data without any neural training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._pcg64 import PCG64, seed_words
from .errors import ConfigMismatch, CorruptStream, InvalidConfig, InvalidInput
from .fsq import _checked_int, _checked_reals, _checked_type
from .quantizer import UtilizationReport, _frames_array, _token_bitrate, _utilization

SCHEMES = ("vq", "gvq", "rvq", "grvq")

_CELLS = 1 << 16  # distance values per `_assign` block, groups x rows x k: 512 KB
_MIN_ROWS = 64  # rows per `_assign` block, summed over its groups


@dataclass(frozen=True, eq=False)
class Codebook:
    entries: np.ndarray  # (k, dim)

    def __post_init__(self):
        arr = _checked_reals(self.entries, "codebook", InvalidConfig).copy()
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise InvalidConfig(f"codebook must be (k, dim) with k, dim >= 1, got {arr.shape}")
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
        lows = {"codebook_size": 1, "groups": 1, "residuals": 1, "kmeans_iters": 0, "seed": 0}
        for name, low in lows.items():
            count = _checked_int(getattr(self, name), name, InvalidConfig, low)
            object.__setattr__(self, name, count)
        if self.residuals > 255:
            raise InvalidConfig(f"residuals ({self.residuals}) exceed the 255-stage limit")
        if self.scheme == "vq" and (self.groups != 1 or self.residuals != 1):
            raise InvalidConfig("vq uses exactly one group and one residual stage")
        if self.scheme == "gvq" and self.residuals != 1:
            raise InvalidConfig("gvq uses exactly one residual stage")
        if self.scheme == "rvq" and self.groups != 1:
            raise InvalidConfig("rvq uses exactly one group")


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest centroid per row of each group, (G, n, d) x (G, k, d) -> (G, n),
    by expanded squared distance c2 - 2 x.c; ties -> lowest index.

    Blocks of max(ceil(_MIN_ROWS / G), _CELLS // (G k)) rows per group reuse
    one (G, rows, k) distance buffer. It holds at most _CELLS = 2**16 values
    (512 KB) unless the floor of _MIN_ROWS rows per block, summed over the
    groups, binds (from k > 1024 for one group), and then at most
    ceil(64 / G) G k <= (G + 63) k values: the floor keeps each matmul wide
    enough for BLAS at large k. So the buffer never grows with the row count
    and grows with k only past the floor. The reference tests compare the
    labels with those of 2048-row blocks.
    """
    G, n, _ = data.shape
    k = centers.shape[1]
    labels = np.empty((G, n), dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflowed norm is refused below
        c2 = (centers**2).sum(axis=2)[:, None, :]
    if not np.isfinite(c2).all():  # c2 - 2 x.c would be inf - inf
        raise InvalidInput("frames too large: k-means distances overflow float64")
    centers_t = centers.transpose(0, 2, 1)
    step = max(-(-_MIN_ROWS // G), _CELLS // (G * k))
    buf = np.empty(G * min(step, n) * k)
    for s in range(0, n, step):
        block = data[:, s : s + step]
        d = buf[: block.shape[1] * G * k].reshape(G, -1, k)
        np.matmul(block, centers_t, out=d)
        d *= -2.0  # c2 + (-2 M) is c2 - 2 M bit for bit: doubling is exact
        d += c2
        d.argmin(axis=2, out=labels[:, s : s + step])
    return labels


def _gather(centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each group's chosen centroids: (G, k, d), (G, n) -> (G, n, d)."""
    return centers[np.arange(len(centers))[:, None], labels]


def _draw(d2: np.ndarray, total: np.ndarray, rngs) -> np.ndarray:
    """One k-means++ pick per group: row i with probability d2[g, i] / total[g],
    by numpy `Generator.choice(n, p=...)`'s own arithmetic and its one uniform
    `random()` draw; a uniform `integers(n)` pick where total is 0. The draws
    come from each group's `_pcg64.PCG64`."""
    picks = np.empty(len(rngs), dtype=np.int64)
    live = np.flatnonzero(total > 0)
    cdf = np.cumsum(d2[live] / total[live, None], axis=1)
    cdf /= cdf[:, -1:]
    draws = np.array([rngs[g].random() for g in live])
    picks[live] = (cdf <= draws[:, None]).sum(axis=1)
    for g in np.flatnonzero(total == 0):
        picks[g] = rngs[g].integers(d2.shape[1])
    return picks


def _kmeans_pp(data: np.ndarray, coords: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ centers (G, k, d) for (G, n, d) data, from its
    coordinate-major copy `coords` (d, G, n) and one generator per group.

    A distance is summed over the d coordinate planes in order. Below 8
    dims that is bit-equal to numpy's sum along a row; from 8 dims numpy
    sums a row pairwise, so a distance may differ in its last bit. Distances
    only weigh which data row becomes a center, so a pick could move only
    when a uniform draw lands within that rounding of a step of the cdf.
    Every pick's squared offsets go to one buffer, freed on return, before
    the Lloyd steps allocate theirs.
    """
    G, n, dim = data.shape
    rows = np.arange(G)
    diff = np.empty_like(coords)

    def sq_dists(center: np.ndarray) -> np.ndarray:  # (G, d) -> (G, n)
        np.subtract(coords, center.T[:, :, None], out=diff)
        return np.multiply(diff, diff, out=diff).sum(axis=0)  # x * x is what x**2 computes

    centers = np.empty((G, k, dim))
    centers[:, 0] = data[rows, [rng.integers(n) for rng in rngs]]
    with np.errstate(over="ignore"):  # an overflowed total is refused below
        d2 = sq_dists(centers[:, 0])
        for j in range(1, k):
            total = d2.sum(axis=1)
            if not np.isfinite(total).all():
                raise InvalidInput("frames too large: k-means++ distances overflow float64")
            centers[:, j] = data[rows, _draw(d2, total, rngs)]
            np.minimum(d2, sq_dists(centers[:, j]), out=d2)
    return centers


def _kmeans(
    data: np.ndarray, k: int, iters: int, seeds, track_history: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """k-means on every group of (G, n, d) data at once, one seed per group.

    Returns (centers (G, k, d), distortion history (iterations, G) or None).
    Each group draws from its own generator and stops updating once its
    labels repeat (its later history entries are NaN), so every group's
    centers equal those of a one-group run. The per-point distortion is
    computed only for the history or to reseed an empty cluster.

    A group's generator is `_pcg64.PCG64(seed)`, the in-package PCG64 that
    draws bit for bit what `numpy.random.default_rng(seed)` draws, so
    codebooks do not depend on numpy's Generator stream policy and fitting
    never imports numpy.random. k-means++ (`_kmeans_pp`) picks the first
    centers.
    """
    G, n, dim = data.shape
    if dim < 1:
        raise InvalidInput("k-means needs frames of at least one value, got zero-width frames")
    if k > n:
        raise InvalidConfig(f"k ({k}) exceeds the number of data points ({n})")
    rngs = [PCG64(seed) for seed in seeds]
    rows = np.arange(G)
    coords = np.ascontiguousarray(data.transpose(2, 0, 1))
    centers = _kmeans_pp(data, coords, k, rngs)

    history = []
    active = np.ones(G, dtype=bool)
    offsets = rows[:, None] * k  # label -> bin of the flattened (G, k) grid
    planes = coords.reshape(dim, G * n)  # rows in the order of the flattened labels
    prev_labels = None
    for _ in range(iters):
        labels = _assign(data, centers)
        if prev_labels is not None:
            active &= (labels != prev_labels).any(axis=1)
            if not active.any():
                break
        slots = (offsets + labels).ravel()
        counts = np.bincount(slots, minlength=G * k).reshape(G, k)
        empty = (counts == 0) & active[:, None]
        if track_history or empty.any():
            dists = ((data - _gather(centers, labels)) ** 2).sum(axis=2)
            for g, j in zip(*np.nonzero(empty)):
                far = int(np.argmax(dists[g]))
                centers[g, j] = data[g, far]
                labels[g, far] = j
                dists[g, far] = 0.0
            if track_history:
                history.append(np.where(active, dists.sum(axis=1), np.nan))
            slots = (offsets + labels).ravel()
            counts = np.bincount(slots, minlength=G * k).reshape(G, k)
        # one coordinate at a time; bincount adds each bin's rows in row order
        sums = np.stack([np.bincount(slots, w, G * k) for w in planes], axis=1)
        update = (counts > 0) & active[:, None]
        centers[update] = sums.reshape(G, k, dim)[update] / counts[update][:, None]
        prev_labels = labels
    return centers, np.reshape(history, (-1, G)) if track_history else None


def kmeans_fit(data, k: int, iters: int, seed: int, return_history: bool = False):
    """Seeded k-means: k-means++ init then Lloyd until stable or iters.

    Empty clusters are reseeded to the point currently farthest from its
    assigned centroid. Deterministic given (data, k, iters, seed). With
    return_history=True also returns the per-iteration distortion so
    monotonicity can be checked.
    """
    k = _checked_int(k, "k", InvalidConfig, low=1)
    iters = _checked_int(iters, "iters", InvalidConfig)
    seeds = [_checked_int(seed, "seed", InvalidConfig)]
    centers, history = _kmeans(_frames_array(data)[None], k, iters, seeds, return_history)
    book = Codebook(centers[0])
    if return_history:
        return book, history[:, 0]
    return book


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
    stage are fit at once; group g, stage r is seeded by word g * R + r of
    `SeedSequence(cfg.seed).generate_state(G * R)`.
    """
    _checked_type(cfg, BaselineConfig, "config")
    residual = _split_groups(frames, cfg.groups)
    seeds = seed_words(cfg.seed, cfg.groups * cfg.residuals)
    stages = []
    for r in range(cfg.residuals):
        if stages:  # the residual left by the previous stage; none is left after the last
            residual -= _gather(stages[-1], _assign(residual, stages[-1]))
        stage_seeds = seeds[r :: cfg.residuals]
        stages.append(_kmeans(residual, cfg.codebook_size, cfg.kmeans_iters, stage_seeds)[0])
    return [[Codebook(stage[g]) for stage in stages] for g in range(cfg.groups)]


def baseline_encode(
    frames, cfg: BaselineConfig, codebooks: list[list[Codebook]]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode frames; returns (tokens (T, groups, residuals), reconstructions)."""
    _checked_type(cfg, BaselineConfig, "config")
    residual = _split_groups(frames, cfg.groups)
    G, T, dg = residual.shape
    rows = codebooks if isinstance(codebooks, (list, tuple)) else ()
    if len(rows) != G or any(
        not isinstance(row, (list, tuple)) or len(row) != cfg.residuals
        or not all(isinstance(book, Codebook) for book in row) for row in rows
    ):
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
    _checked_type(cfg, BaselineConfig, "config")
    return _utilization(tokens, cfg.groups, cfg.residuals, cfg.codebook_size)


def baseline_bitrate(cfg: BaselineConfig, fps: float) -> float:
    """groups * residuals * log2(k) * fps, the grid quantizer's accounting."""
    _checked_type(cfg, BaselineConfig, "config")
    return _token_bitrate(cfg.groups * cfg.residuals, cfg.codebook_size, fps)


def codebook_to_bytes(book: Codebook) -> bytes:
    """Serialize as a (k, dim) u32 header plus row-major f32 entries, or
    `InvalidInput` when an entry rounds past float32, since such a blob
    could not be read back."""
    with np.errstate(over="ignore"):  # an overflowed entry is refused below
        entries = book.entries.astype("<f4")
    if not np.isfinite(entries).all():
        raise InvalidInput("codebook entries exceed single precision")
    return struct.pack("<II", book.k, book.dim) + entries.tobytes()


def codebook_from_bytes(buf: bytes) -> Codebook:
    """Read a `codebook_to_bytes` blob; any malformed blob is `CorruptStream`."""
    if len(buf) < 8:
        raise CorruptStream("codebook blob shorter than its header")
    k, dim = struct.unpack("<II", buf[:8])
    expected = 8 + 4 * k * dim
    if len(buf) != expected:
        raise CorruptStream(f"codebook blob is {len(buf)} bytes, expected {expected}")
    entries = np.frombuffer(buf[8:], dtype="<f4").astype(np.float64).reshape(k, dim)
    try:
        return Codebook(entries)
    except InvalidConfig as exc:
        raise CorruptStream(f"invalid codebook: {exc}") from None
