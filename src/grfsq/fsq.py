"""Per-vector finite scalar quantization on a fixed uniform grid.

Every dimension ``i`` is squashed with tanh and snapped to one of
``levels[i]`` uniformly spaced values on [-1, 1]:

    value(k) = -1 + 2k / (levels[i] - 1),   k in [0, levels[i])

The cartesian product of the per-dimension level sets forms an implicit
codebook that is never materialized; codewords are addressed by a
mixed-radix flat index with dimension 0 as the least significant digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCode,
    InvalidConfig,
    InvalidIndex,
    InvalidInput,
    TooLarge,
)

ENUMERATION_CAP = 1_000_000

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class LevelSpec:
    """Per-dimension level counts defining the quantization grid."""

    levels: tuple[int, ...]

    def __post_init__(self):
        try:
            levels = iter(self.levels)
        except TypeError:
            raise InvalidConfig(f"levels must be a sequence of counts, got {self.levels!r}") from None
        levels = tuple(_checked_int(l, "level count", InvalidConfig, low=2) for l in levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 1:
            raise InvalidConfig("level spec needs at least one dimension")
        size = math.prod(levels)
        if size > _UINT64_MAX:
            raise InvalidConfig(f"codebook size {size} exceeds unsigned 64-bit range")
        object.__setattr__(self, "_size", size)

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def codebook_size(self) -> int:
        return self._size

    @property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place values, dimension 0 least significant."""
        out, acc = [], 1
        for l in self.levels:
            out.append(acc)
            acc *= l
        return tuple(out)


def _grid_values(codes, levels) -> np.ndarray:
    # The single grid formula used everywhere; keeping one expression makes
    # quantize/dequantize/enumerate outputs bit-identical.
    return -1.0 + (2.0 * np.asarray(codes, dtype=np.float64)) / (
        np.asarray(levels, dtype=np.float64) - 1.0
    )


def _finite_vector(z, d: int, name: str = "input") -> np.ndarray:
    arr = _checked_reals(z, name, InvalidInput)
    if arr.ndim != 1 or arr.shape[0] != d:
        raise InvalidInput(f"{name} must be a length-{d} vector, got shape {arr.shape}")
    return arr


def _array(values, what: str, error: type[Exception]) -> np.ndarray:
    """The one conversion of an array argument: `values` as an array (the
    input itself when it already is one), or `error` when it is ragged."""
    try:
        return np.asarray(values)
    except ValueError:  # numpy refuses ragged nested sequences
        raise error(f"{what} is ragged") from None


def _real_array(values, what: str, error: type[Exception]) -> np.ndarray:
    """`values` as a float64 array (the input itself when it already is one),
    or `error`. The dtype must be integer or float, checked before any cast;
    bool, complex, string, object and ragged input fail."""
    arr = _array(values, what, error)
    if arr.dtype.kind not in "iuf":
        raise error(f"{what} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _checked_reals(values, what: str, error: type[Exception]) -> np.ndarray:
    """The one rule for real-valued arrays: `_real_array`, and every value
    finite."""
    arr = _real_array(values, what, error)
    if not np.isfinite(arr).all():
        raise error(f"{what} contains non-finite values")
    return arr


def _checked_type(value, cls: type, what: str):
    """The rule for a config argument: `value` when it is a `cls`, else
    `InvalidConfig` naming the class, before any attribute is read."""
    if not isinstance(value, cls):
        raise InvalidConfig(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def _checked_int(value, what: str, error: type[Exception], low: int = 0, high=None) -> int:
    """The scalar form of `_checked_ints`: `value` as a Python int in
    [low, high), unbounded above when `high` is None, or `error`. An int, a
    numpy integer or a finite whole float passes; bool and every other type
    fail. A Python int keeps indices of codebooks past 2**63 exact."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if not whole:
        raise error(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value >= high):
        bounds = f"be >= {low}" if high is None else f"lie in [{low}, {high})"
        raise error(f"{what} must {bounds}, got {value}")
    return value


def _checked_ints(values, high, what: str, error: type[Exception]) -> np.ndarray:
    """The one rule for codes, indices and tokens: `values` as an int64 array
    (the input itself when it already is one; a caller that keeps it copies
    it), or `error`. An empty array passes; otherwise the dtype must be
    integer (not bool) or float with only finite whole numbers, and every
    value must lie in [0, high), `high` broadcast against the values."""
    arr = _array(values, what, error)
    if arr.size:
        whole = np.issubdtype(arr.dtype, np.integer) or (
            arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.floor(arr)))
        )
        if not whole:
            raise error(f"{what} must be integers")
        if arr.min() < 0 or np.any(arr >= high):
            raise error(f"{what} must lie in [0, {high})")
    return arr.astype(np.int64, copy=False)


def _checked_codes(codes, spec: LevelSpec) -> np.ndarray:
    arr = _array(codes, "codes", InvalidCode)
    if arr.ndim != 1 or arr.shape[0] != spec.d:
        raise InvalidCode(f"expected {spec.d} codes, got shape {arr.shape}")
    return _checked_ints(arr, spec.levels, "codes", InvalidCode)


def bound(z, spec: LevelSpec) -> np.ndarray:
    """Squash a vector into (-1, 1) componentwise with tanh."""
    return np.tanh(_finite_vector(z, spec.d))


def _nearest_codes(y: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest grid code for values of shape (..., d) in [-1, 1], ties to the larger code.

    Only lo = floor(u), u = fl((y + 1)(L - 1)/2), and lo + 1 are compared by
    float distance. u is within a few ulps of the exact u*, whose nearest code
    is floor(u*) or floor(u*) + 1; floor(u) != floor(u*) only when u* is within
    rounding of an integer, which is then nearest and is lo or lo + 1. Float
    distances of non-adjacent codes differ by >= 2/(L - 1), so ties are adjacent.
    """
    half = levels - 1.0
    lo = np.clip(np.floor((y + 1.0) * half / 2.0), 0.0, half)
    hi = np.minimum(lo + 1.0, half)
    up = np.abs(_grid_values(hi, levels) - y) <= np.abs(_grid_values(lo, levels) - y)
    return np.where(up, hi, lo).astype(np.int64)


def _flatten(codes, spec: LevelSpec) -> np.ndarray:
    """Mixed-radix flat index of codes (..., d), as uint64."""
    return np.asarray(codes, dtype=np.uint64) @ np.asarray(spec.strides, dtype=np.uint64)


def _unflatten(index, spec: LevelSpec) -> np.ndarray:
    """Per-dimension codes (..., d) of flat indices (...), as uint64."""
    idx = np.asarray(index, dtype=np.uint64)
    codes = np.empty(idx.shape + (spec.d,), dtype=np.uint64)
    for j, level in enumerate(spec.levels):  # a scalar divisor takes numpy's fast path
        idx, codes[..., j] = np.divmod(idx, np.uint64(level))
    return codes


def fsq_quantize(z, spec: LevelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a vector: returns (codes, grid values).

    Codes minimize the per-dimension distance between tanh(z) and the grid;
    exact midpoints resolve toward the larger code index.
    """
    y = bound(z, spec)
    levels = np.asarray(spec.levels, dtype=np.float64)
    codes = _nearest_codes(y, levels)
    return codes, _grid_values(codes, levels)


def fsq_dequantize(codes, spec: LevelSpec) -> np.ndarray:
    """Exact grid values for a code point; no rounding involved."""
    arr = _checked_codes(codes, spec)
    return _grid_values(arr, spec.levels)


def codes_to_index(codes, spec: LevelSpec) -> int:
    """Flatten per-dimension codes into the mixed-radix codebook index."""
    return int(_flatten(_checked_codes(codes, spec), spec))


def index_to_codes(index: int, spec: LevelSpec) -> np.ndarray:
    """Invert :func:`codes_to_index`."""
    idx = _checked_int(index, "index", InvalidIndex, high=spec.codebook_size)
    return _unflatten(idx, spec).astype(np.int64)


def ste_gradient(z, spec: LevelSpec, upstream) -> np.ndarray:
    """Straight-through backward pass: rounding is treated as identity.

    The returned gradient is upstream * d/dz tanh(z); quantizing to the grid
    contributes nothing in the backward direction.
    """
    zv = _finite_vector(z, spec.d)
    up = _finite_vector(upstream, spec.d, name="upstream")
    return up * (1.0 - np.tanh(zv) ** 2)


def enumerate_codebook(spec: LevelSpec) -> np.ndarray:
    """Materialize every codeword, ordered by flat index. Desk-scale only."""
    size = spec.codebook_size
    if size > ENUMERATION_CAP:
        raise TooLarge(f"codebook size {size} exceeds enumeration cap {ENUMERATION_CAP}")
    codes = _unflatten(np.arange(size, dtype=np.uint64), spec)
    return _grid_values(codes, spec.levels)
