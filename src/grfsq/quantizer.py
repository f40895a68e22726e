"""Group-residual FSQ: the full quantizer on top of the per-vector core.

A frame of ``num_groups * group_dim`` values is split into groups; each
group runs ``num_residuals`` rounds of quantize-and-subtract, calling the
FSQ grid on the current residual every round. Groups may carry an
orthonormal down/up projection pair so group dimension and grid dimension
can differ.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigMismatch,
    DegenerateCalibration,
    InvalidConfig,
    InvalidIndex,
    InvalidInput,
)
from .fsq import (
    LevelSpec, _checked_int, _checked_ints, _checked_reals, _finite_vector, _flatten,
    _grid_values, _nearest_codes, _unflatten,
)

DEFAULT_GROUPS = 12
DEFAULT_RESIDUALS = 4
DEFAULT_LEVELS = (5, 5, 5, 5)
DEFAULT_FPS = 25.0

_ORTHO_TOL = 1e-5  # projections are stored at single precision
_CHUNK = 256  # frames per batched encode; bounds the (R, chunk, D) partials


def _as_projections(mats, groups: int, d: int, group_dim: int) -> np.ndarray:
    """Per-group projections as one read-only (groups, d, group_dim) float64 array."""
    mats = [_checked_reals(m, f"projection {g}", InvalidConfig) for g, m in enumerate(mats)]
    if len(mats) != groups:
        raise InvalidConfig(f"expected {groups} projections, got {len(mats)}")
    for g, m in enumerate(mats):
        if m.shape != (d, group_dim):
            raise InvalidConfig(
                f"projection {g} must have shape ({d}, {group_dim}), got {m.shape}"
            )
    stack = np.stack(mats)
    gram = stack @ stack.transpose(0, 2, 1)
    bad = ~np.isclose(gram, np.eye(d), atol=_ORTHO_TOL).all(axis=(1, 2))
    if bad.any():
        raise InvalidConfig(f"projection {bad.argmax()} rows are not orthonormal")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class GrfsqConfig:
    """Shape of the quantizer: groups, residual depth, grid, projections."""

    num_groups: int
    num_residuals: int
    level_spec: LevelSpec
    group_dim: int
    projections: np.ndarray | None = None  # (num_groups, d, group_dim)

    def __post_init__(self):
        for name in ("num_groups", "num_residuals", "group_dim"):
            count = _checked_int(getattr(self, name), name, InvalidConfig, low=1)
            object.__setattr__(self, name, count)
        d = self.level_spec.d
        ups = None
        if self.projections is None:
            if self.group_dim != d:
                raise InvalidConfig(
                    f"without projections group_dim ({self.group_dim}) must equal "
                    f"the grid dimension ({d})"
                )
        else:
            downs = _as_projections(self.projections, self.num_groups, d, self.group_dim)
            object.__setattr__(self, "projections", downs)
            ups = np.ascontiguousarray(downs.transpose(0, 2, 1))
            ups.setflags(write=False)
        object.__setattr__(self, "_ups", ups)
        if self.level_spec.codebook_size > 2**63 - 1:
            raise InvalidConfig("codebook size too large for signed 64-bit indices")

    @property
    def total_dim(self) -> int:
        return self.num_groups * self.group_dim

    @property
    def codebook_size(self) -> int:
        return self.level_spec.codebook_size

    def __eq__(self, other):
        if not isinstance(other, GrfsqConfig):
            return NotImplemented
        return (
            self.num_groups == other.num_groups
            and self.num_residuals == other.num_residuals
            and self.level_spec == other.level_spec
            and self.group_dim == other.group_dim
            and np.array_equal(self.projections, other.projections)  # True for None, None
        )


@dataclass(frozen=True)
class ReconstructionReport:
    """Distortion summary for a quantized sequence."""

    per_frame_rmse: np.ndarray
    cumulative_rmse_by_residual: np.ndarray
    mean_rmse: float


@dataclass(frozen=True, eq=False)
class UtilizationReport:
    """Fraction of each codebook observed at least once, in percent."""

    per_codebook_percent: np.ndarray  # (num_groups, num_residuals)
    mean_percent: float

    @property
    def empty(self) -> bool:
        """No tokens seen: any token puts every codebook above 0 %."""
        return self.mean_percent == 0.0


def _project(stacked: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply per-group matrices (G, m, n) to vectors (..., G, n).

    matmul makes one matrix-vector BLAS call per (row, group), the same call
    a single ``matrix @ vector`` makes, so batching does not change a bit.
    """
    return np.matmul(stacked, v[..., None])[..., 0]


def _encode(arr: np.ndarray, cfg: GrfsqConfig):
    """Frames (T, D) through the group/residual recursion, all rows at once.

    Returns (indices (T, G, R), partials (R, T, D)) where partials[r] is the
    reconstruction truncated to the first r+1 residual stages.
    """
    T = arr.shape[0]
    levels = np.asarray(cfg.level_spec.levels, dtype=np.float64)
    residual = arr.reshape(T, cfg.num_groups, cfg.group_dim)
    acc = np.zeros_like(residual)
    indices = np.empty((T, cfg.num_groups, cfg.num_residuals), dtype=np.int64)
    partials = np.empty((cfg.num_residuals, T, cfg.total_dim), dtype=np.float64)
    for r in range(cfg.num_residuals):
        z = residual if cfg.projections is None else _project(cfg.projections, residual)
        codes = _nearest_codes(np.tanh(z), levels)
        values = _grid_values(codes, levels)
        q = values if cfg._ups is None else _project(cfg._ups, values)
        acc = acc + q
        residual = residual - q
        indices[:, :, r] = _flatten(codes, cfg.level_spec)
        partials[r] = acc.reshape(T, cfg.total_dim)
    return indices, partials


def grfsq_quantize(x, cfg: GrfsqConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quantize one frame; returns (reconstruction, indices of shape (G, R))."""
    xv = _finite_vector(x, cfg.total_dim, name="frame")
    indices, partials = _encode(xv[None], cfg)
    return partials[-1, 0], indices[0]


def _checked_indices(indices, cfg: GrfsqConfig) -> np.ndarray:
    arr = np.asarray(indices)
    block = (cfg.num_groups, cfg.num_residuals)
    if arr.shape[-2:] != block:
        raise InvalidIndex(f"expected index shape (..., {block[0]}, {block[1]}), got {arr.shape}")
    return _checked_ints(arr, cfg.codebook_size, "indices", InvalidIndex)


def grfsq_dequantize(indices, cfg: GrfsqConfig) -> np.ndarray:
    """Rebuild frames (..., D) from index blocks (..., G, R).

    Stages accumulate in the same order as the quantizer, so the result is
    bit-equal to the reconstruction returned there.
    """
    arr = _checked_indices(indices, cfg)
    values = _grid_values(_unflatten(arr, cfg.level_spec), cfg.level_spec.levels)  # (..., G, R, d)
    acc = np.zeros(arr.shape[:-1] + (cfg.group_dim,))
    for r in range(cfg.num_residuals):
        q = values[..., r, :]
        q = q if cfg._ups is None else _project(cfg._ups, q)
        acc = acc + q
    return acc.reshape(arr.shape[:-2] + (cfg.total_dim,))


def _frames_array(frames, dim: int | None = None) -> np.ndarray:
    arr = _checked_reals(frames, "frame array", InvalidInput)
    if arr.ndim != 2:
        raise InvalidInput(f"frames must be a 2-D array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ConfigMismatch(f"frames have dimension {arr.shape[1]}, expected {dim}")
    return arr


def quantize_sequence(
    frames, cfg: GrfsqConfig
) -> tuple[np.ndarray, np.ndarray, ReconstructionReport]:
    """Quantize frames in fixed batches of rows.

    Returns (indices (T, G, R), reconstructions (T, D), report). Each row
    is bit-equal to a single-frame :func:`grfsq_quantize` call.
    """
    arr = _frames_array(frames, cfg.total_dim)
    T, D = arr.shape
    indices = np.empty((T, cfg.num_groups, cfg.num_residuals), dtype=np.int64)
    recon = np.empty((T, D), dtype=np.float64)
    sq_err_by_stage = np.zeros(cfg.num_residuals)
    for s in range(0, T, _CHUNK):
        chunk = arr[s : s + _CHUNK]
        idx, partials = _encode(chunk, cfg)
        indices[s : s + _CHUNK] = idx
        recon[s : s + _CHUNK] = partials[-1]
        sq_err_by_stage += ((chunk - partials) ** 2).sum(axis=(1, 2))

    per_frame = np.sqrt(((arr - recon) ** 2).mean(axis=1))
    report = ReconstructionReport(
        per_frame_rmse=per_frame,
        cumulative_rmse_by_residual=np.sqrt(sq_err_by_stage / max(T * D, 1)),
        mean_rmse=float(per_frame.mean()) if T else 0.0,
    )
    return indices, recon, report


def calibrate_projections(calibration, cfg: GrfsqConfig) -> GrfsqConfig:
    """Fit per-group orthonormal projections by PCA over calibration frames.

    Each group keeps the top ``level_spec.d`` covariance eigenvectors in
    descending eigenvalue order, every axis oriented so its
    largest-magnitude component is positive. Matrices are rounded to single
    precision so they survive stream headers losslessly.
    """
    arr = _frames_array(calibration, cfg.total_dim)
    d, dg = cfg.level_spec.d, cfg.group_dim
    if arr.shape[0] < d:
        raise InvalidInput(f"need at least {d} calibration frames, got {arr.shape[0]}")
    if dg == d:
        eye = np.broadcast_to(np.eye(d), (cfg.num_groups, d, d))
        return dataclasses.replace(cfg, projections=eye)

    downs = np.empty((cfg.num_groups, d, dg))
    for g in range(cfg.num_groups):
        block = arr[:, g * dg : (g + 1) * dg]
        centered = block - block.mean(axis=0)
        cov = centered.T @ centered / max(arr.shape[0] - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        top = eigvals[order[:d]]
        tol = max(eigvals.max(), 0.0) * 1e-9 + 1e-300
        if top[-1] <= tol:
            raise DegenerateCalibration(
                f"group {g} covariance rank below {d}; cannot calibrate"
            )
        axes = eigvecs[:, order[:d]].T  # rows are principal axes
        for row in axes:
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        downs[g] = axes.astype(np.float32)
    return dataclasses.replace(cfg, projections=downs)


def _check_fps(fps: float) -> None:
    rate = _checked_reals(fps, "fps", InvalidConfig)
    if rate.ndim or not rate > 0:
        raise InvalidConfig(f"fps must be finite and positive, got {fps}")


def _token_bitrate(books: int, codebook_size: int, fps: float) -> float:
    """Index bitrate of ``books`` codebooks per frame: books * log2(k) * fps."""
    _check_fps(fps)
    return books * math.log2(codebook_size) * fps


def bitrate(cfg: GrfsqConfig, fps: float) -> float:
    """Theoretical token bitrate: groups * residuals * log2(codebook) * fps."""
    return _token_bitrate(cfg.num_groups * cfg.num_residuals, cfg.codebook_size, fps)


def float_stream_bitrate(dims: int, fps: float) -> float:
    """Bitrate of an uncompressed 32-bit float latent stream, for comparison rows."""
    # one 32-bit float carries as many bits as one token of a 2**32-entry codebook
    return _token_bitrate(_checked_int(dims, "dims", InvalidConfig, low=1), 2**32, fps)


def _utilization(tokens, groups: int, residuals: int, codebook_size: int) -> UtilizationReport:
    """Share of each of the (groups, residuals) codebooks seen in (T, G, R) tokens."""
    arr = np.asarray(tokens)
    if arr.ndim != 3 or arr.shape[1:] != (groups, residuals):
        raise ConfigMismatch(
            f"expected token shape (T, {groups}, {residuals}), got {arr.shape}"
        )
    ordered = np.sort(_checked_ints(arr, codebook_size, "token indices", InvalidIndex), axis=0)
    # distinct tokens per book: the first token, then one per change in sorted order
    count = (len(arr) > 0) + (ordered[1:] != ordered[:-1]).sum(axis=0)
    per = 100.0 * count / codebook_size
    return UtilizationReport(per_codebook_percent=per, mean_percent=float(per.mean()))


def utilization(tokens, cfg: GrfsqConfig) -> UtilizationReport:
    """Per-(group, residual) codebook coverage over a token tensor, in percent."""
    return _utilization(tokens, cfg.num_groups, cfg.num_residuals, cfg.codebook_size)
