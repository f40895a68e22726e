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
from .fsq import LevelSpec, _checked_int, _checked_ints, _flatten, _unflatten
from .quantizer import GrfsqConfig, _check_fps

MAGIC = b"GRFQ"
STREAM_VERSION = 1
MODE_MIXED_RADIX = 0
MODE_FIXED_WIDTH = 1

PACKING_MODE_NAMES = {MODE_MIXED_RADIX: "mixed-radix", MODE_FIXED_WIDTH: "fixed-width"}
_HEAD = struct.Struct("<4sBBBB")  # magic, version, groups, residuals, grid_dim
_TAIL = struct.Struct("<HHIfBB")  # group_dim, total_dim, frame_count, fps, packing, projected
_READ_CHUNK = 1 << 16  # largest single read request while decoding a header
_PACK_CELLS = 1 << 12  # indices per numpy pass while packing or unpacking a payload


@dataclass(frozen=True, eq=False)
class StreamHeader:
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
        if cfg.num_groups > 255 or cfg.num_residuals > 255 or cfg.level_spec.d > 255:
            raise InvalidConfig("groups, residuals and grid dimension must fit in a byte")
        if any(l > 255 for l in cfg.level_spec.levels):
            raise InvalidConfig("level counts must fit in a byte")
        if cfg.group_dim > 65535 or cfg.total_dim > 65535:
            raise InvalidConfig("dimensions must fit in 16 bits")

    def __eq__(self, other):
        if not isinstance(other, StreamHeader):
            return NotImplemented
        return (
            self.config == other.config
            and self.frame_count == other.frame_count
            and struct.pack("<f", self.fps) == struct.pack("<f", other.fps)
            and self.packing_mode == other.packing_mode
        )


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


def _pack_blocks(flat: np.ndarray, cfg: GrfsqConfig, mode: int) -> Iterator[bytes]:
    """Pack T frames of G*R indices, `flat` of shape (T, G*R), into their
    blocks. Indices are checked at once; the blocks come lazily, in runs of
    `_PACK_CELLS` indices, one numpy pass per run."""
    flat = _checked_ints(flat, cfg.codebook_size, "indices", InvalidIndex)
    base, rev = _radix(cfg, mode)
    spec = _limb_spec(base)
    nbits = frame_bits(cfg, mode)
    digits = flat[:, ::-1] if rev else flat
    step = max(1, _PACK_CELLS // flat.shape[1])
    return (_pack_run(digits[s : s + step], spec, nbits) for s in range(0, len(flat), step))


def _pack_run(digits: np.ndarray, spec: LevelSpec, nbits: int) -> bytes:
    # numpy folds each run of k digits into one uint64 limb (a base**k
    # digit); Python then runs Horner over the few limbs of each frame
    k, limb_base = spec.d, spec.codebook_size
    frames, count = digits.shape
    padded = np.zeros((frames, -(-count // k) * k), dtype=np.uint64)
    padded[:, :count] = digits
    limbs = _flatten(padded.reshape(frames, -1, k), spec)
    nbytes, pad = (nbits + 7) // 8, -nbits % 8
    blocks = []
    for row in limbs.tolist():
        value = 0
        for limb in reversed(row):  # limb 0 is least significant
            value = value * limb_base + limb
        blocks.append((value << pad).to_bytes(nbytes, "big"))
    return b"".join(blocks)


def _unpack_blocks(payload, cfg: GrfsqConfig, mode: int, nbits: int) -> np.ndarray:
    """Invert `_pack_blocks` for a payload of whole blocks of `nbits` bits
    each, padded to bytes; returns (T, G, R) indices. The first bad frame
    raises CorruptStream: nonzero padding first, then an index past the
    codebook range."""
    base, rev = _radix(cfg, mode)
    spec = _limb_spec(base)
    count = cfg.num_groups * cfg.num_residuals
    nbytes = (nbits + 7) // 8
    frames = len(payload) // nbytes
    out = np.empty((frames, count), dtype=np.int64)
    step = max(1, _PACK_CELLS // count)
    view = memoryview(payload)
    for s in range(0, frames, step):
        chunk = view[s * nbytes : (s + step) * nbytes]
        out[s : s + step] = _unpack_run(chunk, count, spec, cfg.codebook_size, nbits)
    return (out[:, ::-1] if rev else out).reshape(frames, cfg.num_groups, cfg.num_residuals)


def _unpack_run(chunk, count: int, spec: LevelSpec, size: int, nbits: int) -> np.ndarray:
    k, limb_base = spec.d, spec.codebook_size
    nlimbs = -(-count // k)
    top = spec.levels[0] ** (count - (nlimbs - 1) * k)  # the last limb holds fewer digits
    nbytes, pad = (nbits + 7) // 8, -nbits % 8
    frames = len(chunk) // nbytes
    bad_pad = np.zeros(frames, dtype=bool)
    over = np.zeros(frames, dtype=bool)
    rows = []
    for t in range(frames):
        value = int.from_bytes(chunk[t * nbytes : (t + 1) * nbytes], "big")
        bad_pad[t] = value & ((1 << pad) - 1)
        value >>= pad
        row = []
        for _ in range(nlimbs - 1):
            value, limb = divmod(value, limb_base)
            row.append(limb)
        if value >= top:  # zeroed, as it may not fit a uint64
            over[t], value = True, 0
        row.append(value)
        rows.append(row)
    limbs = np.array(rows, dtype=np.uint64).reshape(frames, nlimbs)
    digits = _unflatten(limbs, spec).reshape(frames, nlimbs * k)[:, :count]
    bad = bad_pad | over | (digits >= size).any(axis=1)
    if bad.any():
        t = int(bad.argmax())
        raise CorruptStream(
            "nonzero padding bits" if bad_pad[t] else "packed index exceeds codebook range"
        )
    return digits


def frame_pack(indices, cfg: GrfsqConfig, mode: int = MODE_MIXED_RADIX) -> bytes:
    """Pack one frame's G*R indices into its fixed-size block."""
    arr = np.asarray(indices)
    count = cfg.num_groups * cfg.num_residuals
    if arr.shape not in ((cfg.num_groups, cfg.num_residuals), (count,)):
        raise InvalidInput(
            f"expected {count} indices or shape "
            f"({cfg.num_groups}, {cfg.num_residuals}), got {arr.shape}"
        )
    return b"".join(_pack_blocks(arr.reshape(1, count), cfg, mode))


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


def _read_exact(source, n: int, what: str) -> bytes:
    """Read exactly n bytes, at most _READ_CHUNK per request, so a length taken
    from a corrupted header never asks for more than the bytes present plus
    one chunk."""
    parts = []
    remaining = n
    while remaining:
        buf = source.read(min(remaining, _READ_CHUNK))
        if not buf:
            break
        parts.append(buf)
        remaining -= len(buf)
    data = b"".join(parts)
    if len(data) != n:
        raise CorruptStream(f"truncated {what}: wanted {n} bytes, got {len(data)}")
    return data


def _decode_header(source) -> StreamHeader:
    magic, version, groups, residuals, d = _HEAD.unpack(
        _read_exact(source, _HEAD.size, "header")
    )
    if magic != MAGIC:
        raise CorruptStream(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != STREAM_VERSION:
        raise CorruptStream(f"unsupported version {version}")
    levels = tuple(_read_exact(source, d, "levels"))
    group_dim, total_dim, frame_count, fps, packing_mode, proj_flag = _TAIL.unpack(
        _read_exact(source, _TAIL.size, "header")
    )
    if proj_flag not in (0, 1):
        raise CorruptStream(f"invalid projection flag {proj_flag}")
    if total_dim != groups * group_dim:
        raise CorruptStream(
            f"declared total_dim {total_dim} != groups*group_dim {groups * group_dim}"
        )
    projections = None
    if proj_flag:
        n = groups * d * group_dim
        raw = np.frombuffer(_read_exact(source, 4 * n, "projections"), dtype="<f4")
        projections = raw.astype(np.float64).reshape(groups, d, group_dim)
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
    return header


def write_stream(header: StreamHeader, tensor, sink) -> int:
    """Write header plus one packed block per frame; returns bytes written.

    Every index is checked before anything is written, so a bad index
    leaves the sink untouched."""
    arr = np.asarray(tensor)
    cfg = header.config
    expected = (header.frame_count, cfg.num_groups, cfg.num_residuals)
    if arr.shape != expected:
        raise ConfigMismatch(f"tensor shape {arr.shape} does not match header {expected}")
    count = cfg.num_groups * cfg.num_residuals
    runs = _pack_blocks(arr.reshape(header.frame_count, count), cfg, header.packing_mode)
    raw = _encode_header(header)
    sink.write(raw)
    total = len(raw)
    for run in runs:
        sink.write(run)
        total += len(run)
    return total


def read_stream(source) -> tuple[StreamHeader, np.ndarray]:
    """Read a full stream; rejects truncation and trailing garbage.

    The payload length is checked against the header before anything is
    sized from its frame count. The exact block width, a power of G*R
    digits, is computed only once the payload holds `frame_count` blocks of
    the width's cheap lower bound, `G*R*(bit_length(base) - 1)` bits, so a
    header's cost is bounded by the bytes present.
    """
    header = _decode_header(source)
    cfg, mode, frames = header.config, header.packing_mode, header.frame_count
    payload = source.read()
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
