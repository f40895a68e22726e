"""Three-candidate reference for the FSQ grid snap: round to the nearest code,
then refine among that guess and both its neighbors by float distance. It is
the definition `grfsq.fsq._nearest_codes` must match code for code on [-1, 1]."""

from __future__ import annotations

import numpy as np

from grfsq.fsq import _grid_values


def reference_nearest_codes(y: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest grid code for bounded values of shape (..., d), ties to the larger code."""
    half = levels - 1.0
    k0 = np.floor((y + 1.0) * half / 2.0 + 0.5)
    cands = np.stack([k0 + 1.0, k0, k0 - 1.0])
    np.clip(cands, 0.0, half, out=cands)
    dist = np.abs(_grid_values(cands, levels) - y)
    # candidates are ordered largest-first, and argmin keeps the first
    # minimum, so exact ties resolve to the larger code
    pick = np.argmin(dist, axis=0)
    return np.take_along_axis(cands, pick[None], axis=0)[0].astype(np.int64)
