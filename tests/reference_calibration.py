"""Per-axis reference for PCA calibration: sort the eigenvalues, pick the top
d by that order, and orient each axis in its own loop step. It is the
definition `grfsq.quantizer.calibrate_projections` must match bit for bit,
except that it accepts d calibration frames, which centering leaves at rank
d - 1."""

from __future__ import annotations

import dataclasses

import numpy as np

from grfsq.errors import DegenerateCalibration, InvalidInput
from grfsq.quantizer import GrfsqConfig, _frames_array, _refuse_overflow


def reference_calibrate_projections(calibration, cfg: GrfsqConfig) -> GrfsqConfig:
    """Fit per-group orthonormal projections by PCA over calibration frames."""
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            centered = block - block.mean(axis=0)
            cov = centered.T @ centered / max(arr.shape[0] - 1, 1)
        _refuse_overflow(cov)  # eigh does not converge on inf or NaN
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
