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
    LevelSpec, _array, _checked_int, _checked_ints, _checked_reals, _checked_type,
    _finite_vector, _flatten, _grid_values, _nearest_codes, _unflatten,
)

DEFAULT_GROUPS = 12
DEFAULT_RESIDUALS = 4
DEFAULT_LEVELS = (5, 5, 5, 5)
DEFAULT_FPS = 25.0

_ORTHO_TOL = 1e-5  # projections are stored at single precision
_CHUNK = 256  # frames per batched encode or decode; bounds their temporaries


def _as_projections(mats, groups: int, d: int, group_dim: int) -> np.ndarray:
    """Per-group projections as one read-only (groups, d, group_dim) float64
    array, rounded to single precision as a stream header stores them."""
    try:
        mats = iter(mats)
    except TypeError:
        raise InvalidConfig(f"projections must be a sequence of matrices, got {mats!r}") from None
    mats = [_checked_reals(m, f"projection {g}", InvalidConfig) for g, m in enumerate(mats)]
    if len(mats) != groups:
        raise InvalidConfig(f"expected {groups} projections, got {len(mats)}")
    for g, m in enumerate(mats):
        if m.shape != (d, group_dim):
            raise InvalidConfig(
                f"projection {g} must have shape ({d}, {group_dim}), got {m.shape}"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # an entry past float32 fails below
        stack = np.stack(mats).astype(np.float32).astype(np.float64)
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
        _checked_type(self.level_spec, LevelSpec, "level_spec")
        d = self.level_spec.d
        if self.projections is None:
            if self.group_dim != d:
                raise InvalidConfig(
                    f"without projections group_dim ({self.group_dim}) must equal "
                    f"the grid dimension ({d})"
                )
        else:
            downs = _as_projections(self.projections, self.num_groups, d, self.group_dim)
            object.__setattr__(self, "projections", downs)
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


@dataclass(frozen=True, eq=False)
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


def _project(stacked: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply per-group matrices (G, m, n) to vectors (..., G, n).

    Each output sums its n products in index order, one rounded multiply and
    one rounded add at a time. BLAS would pick its summation order and FMA
    use by CPU, so a stream would decode to different bits on different
    machines; elementwise ufuncs give the same bits on every machine, for
    any batch shape and any memory layout of `stacked`.
    """
    out = stacked[:, :, 0] * v[..., 0, None]
    for k in range(1, v.shape[-1]):
        out += stacked[:, :, k] * v[..., k, None]
    return out


def _stage_values(codes, cfg: GrfsqConfig) -> np.ndarray:
    """One residual stage's contribution (..., G, group_dim) from its codes
    (..., G, d). The encoder and the decoder both build every stage here, so
    a decode is bit-equal to the encoder's reconstruction."""
    values = _grid_values(codes, cfg.level_spec.levels)
    if cfg.projections is None:
        return values
    return _project(cfg.projections.transpose(0, 2, 1), values)


def _encode(arr: np.ndarray, cfg: GrfsqConfig):
    """Frames (T, D) through the group/residual recursion, `_CHUNK` rows at a time.

    Returns (indices (T, G, R), reconstruction (T, D), squared error (R,),
    per-frame RMSE (T,)), where error r sums over the reconstruction
    truncated to stages 0..r. Each frame's RMSE is `_frame_rmse`'s, taken
    from its chunk's last squared error, so no (T, D) difference is built.
    """
    levels = np.asarray(cfg.level_spec.levels, dtype=np.float64)
    # C order, so each squared-error sum runs in one order for any input layout
    frames = np.ascontiguousarray(arr).reshape(len(arr), cfg.num_groups, cfg.group_dim)
    indices = np.empty(frames.shape[:2] + (cfg.num_residuals,), dtype=np.int64)
    recon = np.zeros_like(frames)
    sq_err = np.zeros(cfg.num_residuals)
    per_frame = np.empty(len(frames))
    for s in range(0, len(frames), _CHUNK):
        chunk = residual = frames[s : s + _CHUNK]
        acc = recon[s : s + _CHUNK]
        # quantize_sequence refuses an overflow: with projection entries
        # at most 1, a projection past float64 means a squared error past it
        with np.errstate(over="ignore"):
            for r in range(cfg.num_residuals):
                z = residual if cfg.projections is None else _project(cfg.projections, residual)
                codes = _nearest_codes(np.tanh(z), levels)
                q = _stage_values(codes, cfg)
                acc += q
                residual = residual - q
                indices[s : s + _CHUNK, :, r] = _flatten(codes, cfg.level_spec)
                sq = (chunk - acc) ** 2
                sq_err[r] += sq.sum()
            per_frame[s : s + _CHUNK] = np.sqrt(sq.reshape(len(chunk), -1).mean(axis=1))
    return indices, recon.reshape(len(arr), cfg.total_dim), sq_err, per_frame


def grfsq_quantize(x, cfg: GrfsqConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quantize one frame; returns (reconstruction, indices of shape (G, R))."""
    _checked_type(cfg, GrfsqConfig, "config")
    xv = _finite_vector(x, cfg.total_dim, name="frame")
    indices, recon, _, _ = _encode(xv[None], cfg)
    return recon[0], indices[0]


def grfsq_dequantize(indices, cfg: GrfsqConfig) -> np.ndarray:
    """Rebuild frames (..., D) from index blocks (..., G, R).

    Each stage is built by the quantizer's own stage function and added in
    the quantizer's order, so the result is bit-equal to the reconstruction
    returned there. Blocks go `_CHUNK` frames at a time, so the codes and
    their temporaries stay small beside the output.
    """
    _checked_type(cfg, GrfsqConfig, "config")
    arr = _array(indices, "indices", InvalidIndex)
    block = (cfg.num_groups, cfg.num_residuals)
    if arr.shape[-2:] != block:
        raise InvalidIndex(f"expected index shape (..., {block[0]}, {block[1]}), got {arr.shape}")
    arr = _checked_ints(arr, cfg.codebook_size, "indices", InvalidIndex)
    blocks = arr.reshape((-1,) + block)
    out = np.zeros((len(blocks), cfg.num_groups, cfg.group_dim))
    for s in range(0, len(blocks), _CHUNK):
        codes = _unflatten(blocks[s : s + _CHUNK], cfg.level_spec)  # (chunk, G, R, d)
        acc = out[s : s + _CHUNK]
        for r in range(cfg.num_residuals):
            acc += _stage_values(codes[:, :, r], cfg)
    return out.reshape(arr.shape[:-2] + (cfg.total_dim,))


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
    _checked_type(cfg, GrfsqConfig, "config")
    arr = _frames_array(frames, cfg.total_dim)
    indices, recon, sq_err_by_stage, per_frame = _encode(arr, cfg)
    _refuse_overflow(sq_err_by_stage)
    _refuse_overflow(per_frame)
    report = ReconstructionReport(
        per_frame_rmse=per_frame,
        cumulative_rmse_by_residual=np.sqrt(sq_err_by_stage / max(arr.size, 1)),
        mean_rmse=float(per_frame.mean()) if len(arr) else 0.0,
    )
    return indices, recon, report


def _frame_rmse(frames: np.ndarray, recon: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-frame RMSE of (T, D) reconstructions, and its mean (0.0 for no frames)."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        per_frame = np.sqrt(((frames - recon) ** 2).mean(axis=1))
    _refuse_overflow(per_frame)
    return per_frame, float(per_frame.mean()) if frames.shape[0] else 0.0


def _refuse_overflow(errors: np.ndarray) -> None:
    """InvalidInput unless every squared-error or covariance figure is
    finite: frames near float64's range square past it, and JSON has no
    Infinity."""
    if not np.isfinite(errors).all():
        raise InvalidInput("frames too large: their squared error overflows float64")


def calibrate_projections(calibration, cfg: GrfsqConfig) -> GrfsqConfig:
    """Fit per-group orthonormal projections by PCA over calibration frames.

    Each group keeps the top ``level_spec.d`` covariance eigenvectors, largest
    first, each oriented so its largest-magnitude component is positive; that
    takes d + 1 frames, as centering leaves T frames rank T - 1.
    """
    _checked_type(cfg, GrfsqConfig, "config")
    arr = _frames_array(calibration, cfg.total_dim)
    d, dg = cfg.level_spec.d, cfg.group_dim
    if arr.shape[0] < (need := d + (dg > d)):
        raise InvalidInput(f"need at least {need} calibration frames, got {arr.shape[0]}")
    if dg == d:
        eye = np.broadcast_to(np.eye(d), (cfg.num_groups, d, d))
        return dataclasses.replace(cfg, projections=eye)

    downs = np.empty((cfg.num_groups, d, dg))
    for g in range(cfg.num_groups):
        block = arr[:, g * dg : (g + 1) * dg]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            centered = block - block.mean(axis=0)
            cov = centered.T @ centered / (arr.shape[0] - 1)
        _refuse_overflow(cov)  # eigh does not converge on inf or NaN
        eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
        if eigvals[-d] <= max(eigvals[-1], 0.0) * 1e-9 + 1e-300:
            raise DegenerateCalibration(
                f"group {g} covariance rank below {d}; cannot calibrate"
            )
        axes = eigvecs[:, : -d - 1 : -1].T  # rows are principal axes, largest first
        peaks = axes[np.arange(d), np.abs(axes).argmax(axis=1)]
        downs[g] = axes * np.where(peaks < 0, -1.0, 1.0)[:, None]
    return dataclasses.replace(cfg, projections=downs)


def _check_fps(fps: float) -> None:
    rate = _checked_reals(fps, "fps", InvalidConfig)
    if rate.ndim or not rate > 0:
        raise InvalidConfig(f"fps must be finite and positive, got {fps}")


def _token_bitrate(books: int, codebook_size: int, fps: float) -> float:
    """Index bitrate of ``books`` codebooks per frame: books * log2(k) * fps."""
    _check_fps(fps)
    rate = books * math.log2(codebook_size) * float(fps)
    if not math.isfinite(rate):  # JSON has no Infinity
        raise InvalidConfig(f"bitrate at {fps} fps overflows float64")
    return rate


def bitrate(cfg: GrfsqConfig, fps: float) -> float:
    """Theoretical token bitrate: groups * residuals * log2(codebook) * fps."""
    _checked_type(cfg, GrfsqConfig, "config")
    return _token_bitrate(cfg.num_groups * cfg.num_residuals, cfg.codebook_size, fps)


def float_stream_bitrate(dims: int, fps: float) -> float:
    """Bitrate of an uncompressed 32-bit float latent stream, for comparison rows."""
    # one 32-bit float carries as many bits as one token of a 2**32-entry codebook
    return _token_bitrate(_checked_int(dims, "dims", InvalidConfig, low=1), 2**32, fps)


def _utilization(tokens, groups: int, residuals: int, codebook_size: int) -> UtilizationReport:
    """Share of each of the (groups, residuals) codebooks seen in (T, G, R) tokens."""
    arr = _array(tokens, "token indices", InvalidIndex)
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
    _checked_type(cfg, GrfsqConfig, "config")
    return _utilization(tokens, cfg.num_groups, cfg.num_residuals, cfg.codebook_size)
