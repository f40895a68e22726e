"""Bit-exact serialization of token streams (``.grfq`` files).

Header layout, little-endian scalars:

    magic            4 bytes  b"GRFQ"
    version          u8       1
    num_groups       u8
    num_residuals    u8
    grid_dim         u8
    levels           grid_dim bytes
    group_dim        u16
    total_dim        u16
    frame_count      u32
    fps              f32
    packing_mode     u8       0 = mixed-radix, 1 = fixed-width
    projection_flag  u8
    [projections]    f32 * (num_groups * grid_dim * group_dim), row-major

Each frame is one block: the integer whose base-b digits are the frame's
G*R indices (group-major, residual-minor), written MSB-first in the
fewest bits that hold b**(G*R) - 1 and zero-padded to whole bytes. The
packing mode only sets the radix:

    mixed-radix   b = codebook size, first index least significant;
                  ceil(G*R*log2(codebook)) bits per frame
    fixed-width   b = 2**w, w = bits of the largest index, first index
                  most significant; each index in its own w-bit field

On read the padding must be zero and every index inside the codebook.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, CorruptStream, InvalidConfig, InvalidIndex, InvalidInput
from .fsq import LevelSpec, _array, _checked_int, _checked_ints, _flatten, _unflatten
from .quantizer import GrfsqConfig, _check_fps

MAGIC = b"GRFQ"
STREAM_VERSION = 1
MODE_MIXED_RADIX = 0
MODE_FIXED_WIDTH = 1

PACKING_MODE_NAMES = {MODE_MIXED_RADIX: "mixed-radix", MODE_FIXED_WIDTH: "fixed-width"}
_HEAD = struct.Struct("<4sBBBB")  # magic, version, groups, residuals, grid_dim
_TAIL = struct.Struct("<HHIfBB")  # group_dim, total_dim, frame_count, fps, packing, projected
_PACK_CELLS = 1 << 12  # indices per numpy pass while packing or unpacking a payload


@dataclass(frozen=True)
class StreamHeader:
    """A stream's settings within the header's field limits; fps as stored, in single precision."""

    config: GrfsqConfig
    frame_count: int
    fps: float
    packing_mode: int = MODE_MIXED_RADIX

    def __post_init__(self):
        _check_fps(self.fps)
        with np.errstate(over="ignore"):
            stored = np.float32(self.fps)  # the header field is single precision
        if not (np.isfinite(stored) and stored > 0):
            raise InvalidConfig(f"fps {self.fps} does not fit a single-precision header field")
        for name, high in (("frame_count", 2**32), ("packing_mode", len(PACKING_MODE_NAMES))):
            value = _checked_int(getattr(self, name), name, InvalidConfig, high=high)
            object.__setattr__(self, name, value)
        cfg = self.config
        if not isinstance(cfg, GrfsqConfig):
            raise InvalidConfig(f"config must be a GrfsqConfig, got {cfg!r}")
        if cfg.num_groups > 255 or cfg.num_residuals > 255 or cfg.level_spec.d > 255:
            raise InvalidConfig("groups, residuals and grid dimension must fit in a byte")
        if any(l > 255 for l in cfg.level_spec.levels):
            raise InvalidConfig("level counts must fit in a byte")
        if cfg.total_dim > 65535:
            raise InvalidConfig("dimensions must fit in 16 bits")
        object.__setattr__(self, "fps", float(stored))


def _radix(cfg: GrfsqConfig, mode: int) -> tuple[int, bool]:
    """(base, reversed) of a packing mode: a frame block is the integer whose
    base-`base` digits are the frame's indices, the first index least
    significant, or most significant when reversed."""
    if mode == MODE_MIXED_RADIX:
        return cfg.codebook_size, False
    if mode == MODE_FIXED_WIDTH:
        return 1 << (cfg.codebook_size - 1).bit_length(), True
    raise InvalidConfig(f"unknown packing mode {mode}")


def frame_bits(cfg: GrfsqConfig, mode: int) -> int:
    """Exact bit width of one packed frame block, before byte padding."""
    base, _ = _radix(cfg, mode)
    return (base ** (cfg.num_groups * cfg.num_residuals) - 1).bit_length()


def frame_block_bytes(cfg: GrfsqConfig, mode: int) -> int:
    return (frame_bits(cfg, mode) + 7) // 8


def _limb_spec(base: int) -> LevelSpec:
    """The k base-`base` digits of one uint64 limb, k >= 1 the largest with base**k < 2**63."""
    k = 1
    while base ** (k + 1) < 2**63:
        k += 1
    return LevelSpec((base,) * k)


def _pack_blocks(indices: np.ndarray, cfg: GrfsqConfig, mode: int) -> Iterator[bytes]:
    """Pack T frames of checked indices, (T, G, R) or (T, G*R), into one bytes
    object per run of `_PACK_CELLS` indices: numpy folds each k digits into a
    uint64 limb (a base**k digit), then Python runs Horner over its limbs."""
    base, rev = _radix(cfg, mode)
    spec = _limb_spec(base)
    k, limb_base = spec.d, spec.codebook_size
    nbits = frame_bits(cfg, mode)
    nbytes, pad = (nbits + 7) // 8, -nbits % 8
    count = cfg.num_groups * cfg.num_residuals
    flat = indices.reshape(len(indices), count)
    digits = flat[:, ::-1] if rev else flat
    step = max(1, _PACK_CELLS // count)
    for s in range(0, len(digits), step):
        run = digits[s : s + step]
        padded = np.zeros((len(run), -(-count // k) * k), dtype=np.uint64)
        padded[:, :count] = run
        limbs = _flatten(padded.reshape(len(run), -1, k), spec)
        blocks = []
        for row in limbs.tolist():
            value = 0
            for limb in reversed(row):  # limb 0 is least significant
                value = value * limb_base + limb
            blocks.append((value << pad).to_bytes(nbytes, "big"))
        yield b"".join(blocks)


def _unpack_blocks(payload, cfg: GrfsqConfig, mode: int, nbits: int) -> np.ndarray:
    """Invert `_pack_blocks` on whole blocks of `nbits` bits padded to bytes:
    numpy checks every block's pad bits, the low bits of its last byte, in
    one step, Python splits each block into limbs, and numpy unfolds and
    checks each run. The first bad frame raises CorruptStream, nonzero
    padding before an index past the codebook range."""
    base, rev = _radix(cfg, mode)
    spec = _limb_spec(base)
    k, limb_base, size = spec.d, spec.codebook_size, cfg.codebook_size
    count = cfg.num_groups * cfg.num_residuals
    nlimbs = -(-count // k)
    # the last limb holds fewer digits; as a block is below 2**nbits <=
    # 2 * base**count, it is below 2 * top <= 2 * limb_base, so fits a uint64
    top = base ** (count - (nlimbs - 1) * k)
    nbytes, pad = (nbits + 7) // 8, -nbits % 8
    frames = len(payload) // nbytes
    bad_pad = np.frombuffer(payload, np.uint8)[nbytes - 1 :: nbytes] & ((1 << pad) - 1) != 0
    out = np.empty((frames, count), dtype=np.int64)
    step = max(1, _PACK_CELLS // count)
    for s in range(0, frames, step):
        run, limbs = bytes(payload[s * nbytes : (s + step) * nbytes]), []
        for at in range(0, len(run), nbytes):
            value = int.from_bytes(run[at : at + nbytes], "big") >> pad
            for _ in range(nlimbs - 1):
                value, limb = divmod(value, limb_base)
                limbs.append(limb)
            limbs.append(value)
        rows = np.array(limbs, dtype=np.uint64).reshape(-1, nlimbs)
        digits = _unflatten(rows, spec).reshape(len(rows), nlimbs * k)[:, :count]
        bad = bad_pad[s : s + step] | (rows[:, -1] >= top) | (digits >= size).any(axis=1)
        if bad.any():
            t = s + int(bad.argmax())
            raise CorruptStream(
                "nonzero padding bits" if bad_pad[t] else "packed index exceeds codebook range"
            )
        out[s : s + step] = digits[:, ::-1] if rev else digits
    return out.reshape(frames, cfg.num_groups, cfg.num_residuals)


def frame_pack(indices, cfg: GrfsqConfig, mode: int = MODE_MIXED_RADIX) -> bytes:
    """Pack one frame's G*R indices into its fixed-size block."""
    arr = _array(indices, "indices", InvalidIndex)
    count = cfg.num_groups * cfg.num_residuals
    if arr.shape not in ((cfg.num_groups, cfg.num_residuals), (count,)):
        raise InvalidInput(
            f"expected {count} indices or shape "
            f"({cfg.num_groups}, {cfg.num_residuals}), got {arr.shape}"
        )
    checked = _checked_ints(arr.reshape(1, count), cfg.codebook_size, "indices", InvalidIndex)
    return b"".join(_pack_blocks(checked, cfg, mode))


def frame_unpack(block: bytes, cfg: GrfsqConfig, mode: int = MODE_MIXED_RADIX) -> np.ndarray:
    """Invert :func:`frame_pack`; padding bits must be zero."""
    nbits = frame_bits(cfg, mode)
    if len(block) != (nbits + 7) // 8:
        raise CorruptStream(f"block is {len(block)} bytes, expected {(nbits + 7) // 8}")
    return _unpack_blocks(block, cfg, mode, nbits)[0]


def _encode_header(header: StreamHeader) -> bytes:
    cfg = header.config
    spec = cfg.level_spec
    projected = cfg.projections is not None
    raw = (
        _HEAD.pack(MAGIC, STREAM_VERSION, cfg.num_groups, cfg.num_residuals, spec.d)
        + bytes(spec.levels)
        + _TAIL.pack(
            cfg.group_dim, cfg.total_dim, header.frame_count, header.fps,
            header.packing_mode, projected,
        )
    )
    if projected:
        raw += cfg.projections.astype("<f4").tobytes()
    return raw


def _field(data, at: int, n: int, what: str):
    """The n bytes of `data` from offset `at`, refused if fewer are present."""
    field = data[at : at + n]
    if len(field) != n:
        raise CorruptStream(f"truncated {what}: wanted {n} bytes, got {len(field)}")
    return field


def _decode_header(source) -> tuple[StreamHeader, memoryview]:
    """The header and a view of the bytes after it, read in three requests,
    each checked before the next: the head, the levels and tail together (at
    most 255 + 14 bytes), and the rest, whose projection block is sliced."""
    magic, version, groups, residuals, d = _HEAD.unpack(
        _field(source.read(_HEAD.size), 0, _HEAD.size, "header")
    )
    if magic != MAGIC:
        raise CorruptStream(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != STREAM_VERSION:
        raise CorruptStream(f"unsupported version {version}")
    raw = source.read(d + _TAIL.size)
    levels = tuple(_field(raw, 0, d, "levels"))
    group_dim, total_dim, frame_count, fps, packing_mode, proj_flag = _TAIL.unpack(
        _field(raw, d, _TAIL.size, "header")
    )
    if proj_flag not in (0, 1):
        raise CorruptStream(f"invalid projection flag {proj_flag}")
    if total_dim != groups * group_dim:
        raise CorruptStream(
            f"declared total_dim {total_dim} != groups*group_dim {groups * group_dim}"
        )
    rest = memoryview(source.read())
    projections, at = None, 4 * groups * d * group_dim * proj_flag
    if proj_flag:
        block = _field(rest, 0, at, "projections")
        projections = np.frombuffer(block, dtype="<f4").reshape(groups, d, group_dim)
    try:
        cfg = GrfsqConfig(
            num_groups=groups,
            num_residuals=residuals,
            level_spec=LevelSpec(levels),
            group_dim=group_dim,
            projections=projections,
        )
        header = StreamHeader(
            config=cfg, frame_count=frame_count, fps=fps, packing_mode=packing_mode
        )
    except InvalidConfig as exc:
        raise CorruptStream(f"invalid header: {exc}") from None
    return header, rest[at:]


def write_stream(header: StreamHeader, tensor, sink) -> int:
    """Write header plus one packed block per frame; returns bytes written.

    Every index is checked before anything is written, so a bad index
    leaves the sink untouched."""
    arr = _array(tensor, "indices", InvalidIndex)
    cfg = header.config
    expected = (header.frame_count, cfg.num_groups, cfg.num_residuals)
    if arr.shape != expected:
        raise ConfigMismatch(f"tensor shape {arr.shape} does not match header {expected}")
    indices = _checked_ints(arr, cfg.codebook_size, "indices", InvalidIndex)
    raw = _encode_header(header)
    sink.write(raw)
    total = len(raw)
    for run in _pack_blocks(indices, cfg, header.packing_mode):
        sink.write(run)
        total += len(run)
    return total


def read_stream(source) -> tuple[StreamHeader, np.ndarray]:
    """Read a full stream; rejects truncation and trailing garbage.

    `source` is a buffered binary file, whose `read(n)` returns n bytes
    unless the stream ends, as `open(path, "rb")` and `io.BytesIO` do. The
    payload length is checked against the header before anything is
    sized from its frame count. The exact block width, a power of G*R
    digits, is computed only once the payload holds `frame_count` blocks of
    the width's cheap lower bound, `G*R*(bit_length(base) - 1)` bits, so a
    header's cost is bounded by the bytes present.
    """
    header, payload = _decode_header(source)
    cfg, mode, frames = header.config, header.packing_mode, header.frame_count
    nbits = cfg.num_groups * cfg.num_residuals * (_radix(cfg, mode)[0].bit_length() - 1)
    if frames and len(payload) >= frames * ((nbits + 7) // 8):
        nbits = frame_bits(cfg, mode)
    expected = frames * ((nbits + 7) // 8)
    if len(payload) < expected:
        raise CorruptStream(
            f"truncated payload: wanted at least {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise CorruptStream(f"trailing data: {len(payload) - expected} bytes after final block")
    return header, _unpack_blocks(payload, cfg, mode, nbits)
