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

Each frame is one block. Mixed-radix mode treats the G*R indices
(group-major, residual-minor) as little-endian digits of one
base-(codebook size) integer and writes it MSB-first into
ceil(G*R*log2(codebook)) bits; fixed-width mode writes each index in
ceil(log2(codebook)) bits. Blocks are zero-padded to whole bytes and the
padding must read back as zero.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, CorruptStream, InvalidConfig, InvalidIndex, InvalidInput
from .fsq import LevelSpec, _flatten, _unflatten
from .quantizer import GrfsqConfig, _check_fps

MAGIC = b"GRFQ"
STREAM_VERSION = 1
MODE_MIXED_RADIX = 0
MODE_FIXED_WIDTH = 1

PACKING_MODE_NAMES = {MODE_MIXED_RADIX: "mixed-radix", MODE_FIXED_WIDTH: "fixed-width"}
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
        if self.packing_mode not in PACKING_MODE_NAMES:
            raise InvalidConfig(f"unknown packing mode {self.packing_mode}")
        if self.frame_count < 0 or self.frame_count > 2**32 - 1:
            raise InvalidConfig(f"frame_count {self.frame_count} outside u32 range")
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


def frame_bits(cfg: GrfsqConfig, mode: int) -> int:
    """Exact bit width of one packed frame block, before byte padding."""
    count = cfg.num_groups * cfg.num_residuals
    size = cfg.codebook_size
    if mode == MODE_MIXED_RADIX:
        return (size**count - 1).bit_length()
    if mode == MODE_FIXED_WIDTH:
        return count * (size - 1).bit_length()
    raise InvalidConfig(f"unknown packing mode {mode}")


def frame_block_bytes(cfg: GrfsqConfig, mode: int) -> int:
    return (frame_bits(cfg, mode) + 7) // 8


def _limb_spec(size: int) -> LevelSpec:
    """The k base-`size` digits of one uint64 limb, k the largest with size**k < 2**63."""
    k = 1
    while size ** (k + 1) < 2**63:
        k += 1
    return LevelSpec((size,) * k)


def _field_bytes(width: int) -> int:
    """Bytes of the smallest unsigned integer (1, 2, 4 or 8 bytes) holding `width` bits."""
    return 1 << max(0, (width - 1).bit_length() - 3)


def _pack_blocks(flat: np.ndarray, cfg: GrfsqConfig, mode: int) -> Iterator[bytes]:
    """Pack T frames of G*R indices, `flat` of shape (T, G*R), into their
    blocks. Indices are checked at once; the blocks come lazily, in runs of
    `_PACK_CELLS` indices, one numpy pass per run."""
    size = cfg.codebook_size
    if flat.size:
        whole = flat.dtype.kind in "biu" or (
            flat.dtype.kind == "f" and np.all(np.isfinite(flat) & (flat == np.floor(flat)))
        )
        if not whole:
            raise InvalidIndex("indices must be integers")
        if flat.min() < 0 or flat.max() >= size:
            raise InvalidIndex(f"index out of range for codebook size {size}")
    nbits = frame_bits(cfg, mode)
    frames, count = flat.shape
    step = max(1, _PACK_CELLS // count)
    pack = _pack_mixed_radix if mode == MODE_MIXED_RADIX else _pack_fixed_width
    return (
        pack(flat[s : s + step].astype(np.uint64), size, nbits)
        for s in range(0, frames, step)
    )


def _pack_fixed_width(flat: np.ndarray, size: int, nbits: int) -> bytes:
    # each index as big-endian bytes, its low `width` bits in order, then
    # every frame's bit row packed MSB-first with zero padding
    width = (size - 1).bit_length()
    nb = _field_bytes(width)
    frames, count = flat.shape
    be = flat.astype(f">u{nb}").view(np.uint8)
    bits = np.unpackbits(be.reshape(-1)).reshape(frames, count, nb * 8)[:, :, nb * 8 - width :]
    return np.packbits(bits.reshape(frames, nbits), axis=1).tobytes()


def _pack_mixed_radix(flat: np.ndarray, size: int, nbits: int) -> bytes:
    # numpy folds each run of k digits into one uint64 limb (a base-size**k
    # digit); Python then runs Horner over the few limbs of each frame
    spec = _limb_spec(size)
    k, base = spec.d, spec.codebook_size
    frames, count = flat.shape
    limbs_per_frame = -(-count // k)
    digits = np.zeros((frames, limbs_per_frame * k), dtype=np.uint64)
    digits[:, :count] = flat
    limbs = _flatten(digits.reshape(frames, limbs_per_frame, k), spec)
    nbytes = (nbits + 7) // 8
    pad = nbytes * 8 - nbits
    blocks = []
    for row in limbs.tolist():
        value = 0
        for limb in reversed(row):  # limb 0 is least significant
            value = value * base + limb
        blocks.append((value << pad).to_bytes(nbytes, "big"))
    return b"".join(blocks)


def _unpack_blocks(payload, cfg: GrfsqConfig, mode: int) -> np.ndarray:
    """Invert `_pack_blocks` for a payload of whole blocks; returns (T, G, R)
    indices. The first bad frame raises CorruptStream: nonzero padding
    first, then a value past the codebook range."""
    size = cfg.codebook_size
    count = cfg.num_groups * cfg.num_residuals
    nbits = frame_bits(cfg, mode)
    nbytes = (nbits + 7) // 8
    frames = len(payload) // nbytes
    out = np.empty((frames, count), dtype=np.int64)
    step = max(1, _PACK_CELLS // count)
    unpack = _unpack_mixed_radix if mode == MODE_MIXED_RADIX else _unpack_fixed_width
    view = memoryview(payload)
    for s in range(0, frames, step):
        n = min(step, frames - s)
        out[s : s + n] = unpack(view[s * nbytes : (s + n) * nbytes], n, count, size, nbits)
    return out.reshape(frames, cfg.num_groups, cfg.num_residuals)


def _unpack_fixed_width(chunk, frames: int, count: int, size: int, nbits: int) -> np.ndarray:
    width = (size - 1).bit_length()
    nb = _field_bytes(width)
    bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8).reshape(frames, -1), axis=1)
    bad = bits[:, nbits:].any(axis=1)  # nonzero padding
    fields = np.zeros((frames, count, nb * 8), dtype=np.uint8)
    fields[:, :, nb * 8 - width :] = bits[:, :nbits].reshape(frames, count, width)
    values = np.packbits(fields.reshape(-1)).view(f">u{nb}").reshape(frames, count)
    over = (values >= size).any(axis=1)
    if bad.any() or over.any():
        t = int((bad | over).argmax())
        raise CorruptStream(
            "nonzero padding bits" if bad[t] else "packed index exceeds codebook range"
        )
    return values


def _unpack_mixed_radix(chunk, frames: int, count: int, size: int, nbits: int) -> np.ndarray:
    spec = _limb_spec(size)
    k, base = spec.d, spec.codebook_size
    limbs_per_frame = -(-count // k)
    top = size ** (count - (limbs_per_frame - 1) * k)  # the last limb holds fewer digits
    nbytes = (nbits + 7) // 8
    pad = nbytes * 8 - nbits
    pad_mask = (1 << pad) - 1
    rows = []
    for off in range(0, frames * nbytes, nbytes):
        value = int.from_bytes(chunk[off : off + nbytes], "big")
        if value & pad_mask:
            raise CorruptStream("nonzero padding bits")
        value >>= pad
        row = []
        for _ in range(limbs_per_frame - 1):
            value, limb = divmod(value, base)
            row.append(limb)
        if value >= top:
            raise CorruptStream("packed value exceeds codebook range")
        row.append(value)
        rows.append(row)
    limbs = np.array(rows, dtype=np.uint64).reshape(frames, limbs_per_frame)
    return _unflatten(limbs, spec).reshape(frames, limbs_per_frame * k)[:, :count]


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
    nbytes = frame_block_bytes(cfg, mode)
    if len(block) != nbytes:
        raise CorruptStream(f"block is {len(block)} bytes, expected {nbytes}")
    return _unpack_blocks(block, cfg, mode)[0]


def _encode_header(header: StreamHeader) -> bytes:
    cfg = header.config
    spec = cfg.level_spec
    parts = [
        MAGIC,
        struct.pack("<B", STREAM_VERSION),
        struct.pack("<BBB", cfg.num_groups, cfg.num_residuals, spec.d),
        bytes(spec.levels),
        struct.pack("<HH", cfg.group_dim, cfg.total_dim),
        struct.pack("<I", header.frame_count),
        struct.pack("<f", header.fps),
        struct.pack("<BB", header.packing_mode, 0 if cfg.projections is None else 1),
    ]
    if cfg.projections is not None:
        parts.append(cfg.projections.astype("<f4").tobytes())
    return b"".join(parts)


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
    magic = _read_exact(source, 4, "magic")
    if magic != MAGIC:
        raise CorruptStream(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<B", _read_exact(source, 1, "version"))
    if version != STREAM_VERSION:
        raise CorruptStream(f"unsupported version {version}")
    groups, residuals, d = struct.unpack("<BBB", _read_exact(source, 3, "shape"))
    levels = tuple(_read_exact(source, d, "levels")) if d else ()
    group_dim, total_dim = struct.unpack("<HH", _read_exact(source, 4, "dims"))
    (frame_count,) = struct.unpack("<I", _read_exact(source, 4, "frame count"))
    (fps,) = struct.unpack("<f", _read_exact(source, 4, "fps"))
    packing_mode, proj_flag = struct.unpack("<BB", _read_exact(source, 2, "flags"))
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
    sized from its frame count.
    """
    header = _decode_header(source)
    cfg = header.config
    nbytes = frame_block_bytes(cfg, header.packing_mode)
    payload = source.read()
    expected = header.frame_count * nbytes
    if len(payload) < expected:
        raise CorruptStream(f"truncated payload: wanted {expected} bytes, got {len(payload)}")
    if len(payload) > expected:
        raise CorruptStream(f"trailing data: {len(payload) - expected} bytes after final block")
    return header, _unpack_blocks(payload, cfg, header.packing_mode)
