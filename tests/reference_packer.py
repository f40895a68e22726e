"""Per-frame reference for the `.grfq` block packer: one Python big integer
per frame, built and split digit by digit. It is the definition the
whole-payload packer in `grfsq.bitstream` must match byte for byte."""

from __future__ import annotations

from grfsq.bitstream import MODE_MIXED_RADIX, frame_bits
from grfsq.errors import CorruptStream
from grfsq.quantizer import GrfsqConfig


def reference_pack(flat: list[int], cfg: GrfsqConfig, mode: int) -> bytes:
    """Pack one frame's G*R in-range indices (group-major) into its block."""
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


def reference_unpack(block: bytes, cfg: GrfsqConfig, mode: int) -> list[list[int]]:
    """Invert `reference_pack`; padding bits must be zero. Returns G lists of
    R Python ints, so indices past the signed 64-bit range survive."""
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
    R = cfg.num_residuals
    return [flat[g * R : (g + 1) * R] for g in range(cfg.num_groups)]
