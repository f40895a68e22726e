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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, CorruptStream, InvalidConfig, InvalidIndex, InvalidInput
from .fsq import LevelSpec
from .quantizer import GrfsqConfig, _check_fps

MAGIC = b"GRFQ"
STREAM_VERSION = 1
MODE_MIXED_RADIX = 0
MODE_FIXED_WIDTH = 1

PACKING_MODE_NAMES = {MODE_MIXED_RADIX: "mixed-radix", MODE_FIXED_WIDTH: "fixed-width"}
_READ_CHUNK = 1 << 16  # largest single read request while decoding a header


@dataclass(frozen=True, eq=False)
class StreamHeader:
    config: GrfsqConfig
    frame_count: int
    fps: float
    packing_mode: int = MODE_MIXED_RADIX
    version: int = STREAM_VERSION

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
            and self.version == other.version
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


def _flat_indices(indices, cfg: GrfsqConfig) -> list[int]:
    arr = np.asarray(indices)
    count = cfg.num_groups * cfg.num_residuals
    if arr.shape == (cfg.num_groups, cfg.num_residuals):
        arr = arr.reshape(count)
    elif arr.shape != (count,):
        raise InvalidInput(
            f"expected {count} indices or shape "
            f"({cfg.num_groups}, {cfg.num_residuals}), got {arr.shape}"
        )
    flat = [int(v) for v in arr]
    size = cfg.codebook_size
    if any(v < 0 or v >= size for v in flat):
        raise InvalidIndex(f"index out of range for codebook size {size}")
    return flat


def frame_pack(indices, cfg: GrfsqConfig, mode: int = MODE_MIXED_RADIX) -> bytes:
    """Pack one frame's G*R indices into its fixed-size block."""
    flat = _flat_indices(indices, cfg)
    nbits = frame_bits(cfg, mode)
    nbytes = (nbits + 7) // 8
    if mode == MODE_MIXED_RADIX:
        base = cfg.codebook_size
        value = 0
        for digit in reversed(flat):  # digit 0 is least significant
            value = value * base + digit
    else:
        width = (cfg.codebook_size - 1).bit_length()
        value = 0
        for idx in flat:  # first index occupies the most significant bits
            value = (value << width) | idx
    pad = nbytes * 8 - nbits
    return (value << pad).to_bytes(nbytes, "big")


def frame_unpack(block: bytes, cfg: GrfsqConfig, mode: int = MODE_MIXED_RADIX) -> np.ndarray:
    """Invert :func:`frame_pack`; padding bits must be zero."""
    nbits = frame_bits(cfg, mode)
    nbytes = (nbits + 7) // 8
    if len(block) != nbytes:
        raise CorruptStream(f"block is {len(block)} bytes, expected {nbytes}")
    value = int.from_bytes(block, "big")
    pad = nbytes * 8 - nbits
    if value & ((1 << pad) - 1):
        raise CorruptStream("nonzero padding bits")
    value >>= pad
    count = cfg.num_groups * cfg.num_residuals
    size = cfg.codebook_size
    flat = [0] * count
    if mode == MODE_MIXED_RADIX:
        for j in range(count):
            value, flat[j] = divmod(value, size)
        if value:
            raise CorruptStream("packed value exceeds codebook range")
    else:
        width = (size - 1).bit_length()
        mask = (1 << width) - 1
        for j in reversed(range(count)):
            flat[j] = value & mask
            value >>= width
        if any(v >= size for v in flat):
            raise CorruptStream("packed index exceeds codebook range")
    return np.asarray(flat, dtype=np.int64).reshape(cfg.num_groups, cfg.num_residuals)


def _encode_header(header: StreamHeader) -> bytes:
    cfg = header.config
    spec = cfg.level_spec
    parts = [
        MAGIC,
        struct.pack("<B", header.version),
        struct.pack("<BBB", cfg.num_groups, cfg.num_residuals, spec.d),
        bytes(spec.levels),
        struct.pack("<HH", cfg.group_dim, cfg.total_dim),
        struct.pack("<I", header.frame_count),
        struct.pack("<f", header.fps),
        struct.pack("<BB", header.packing_mode, 0 if cfg.projections is None else 1),
    ]
    if cfg.projections is not None:
        mats = np.concatenate([m.reshape(-1) for m in cfg.projections])
        parts.append(mats.astype("<f4").tobytes())
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
        mats = raw.astype(np.float64).reshape(groups, d, group_dim)
        projections = tuple(mats[g] for g in range(groups))
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
    """Write header plus one packed block per frame; returns bytes written."""
    arr = np.asarray(tensor)
    cfg = header.config
    expected = (header.frame_count, cfg.num_groups, cfg.num_residuals)
    if arr.shape != expected:
        raise ConfigMismatch(f"tensor shape {arr.shape} does not match header {expected}")
    raw = _encode_header(header)
    sink.write(raw)
    total = len(raw)
    for t in range(header.frame_count):
        block = frame_pack(arr[t], cfg, header.packing_mode)
        sink.write(block)
        total += len(block)
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
    tensor = np.empty(
        (header.frame_count, cfg.num_groups, cfg.num_residuals), dtype=np.int64
    )
    for t in range(header.frame_count):
        block = payload[t * nbytes : (t + 1) * nbytes]
        tensor[t] = frame_unpack(block, cfg, header.packing_mode)
    return header, tensor
