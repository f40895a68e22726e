import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grfsq.bitstream import (
    _PACK_CELLS,
    _READ_CHUNK,
    MODE_FIXED_WIDTH,
    MODE_MIXED_RADIX,
    STREAM_VERSION,
    StreamHeader,
    frame_bits,
    frame_block_bytes,
    frame_pack,
    frame_unpack,
    read_stream,
    write_stream,
)
from grfsq.errors import ConfigMismatch, CorruptStream, InvalidConfig, InvalidIndex, InvalidInput
from grfsq.fsq import LevelSpec
from grfsq.quantizer import GrfsqConfig, grfsq_dequantize, quantize_sequence
from reference_packer import reference_pack, reference_unpack

DEFAULT = GrfsqConfig(12, 4, LevelSpec((5, 5, 5, 5)), 4)
TINY = GrfsqConfig(1, 1, LevelSpec((2,)), 1)


def projected_config() -> GrfsqConfig:
    rng = np.random.default_rng(20)
    downs = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        downs.append(q[:, :2].T.astype(np.float32).astype(np.float64))
    return GrfsqConfig(2, 3, LevelSpec((5, 5)), 6, tuple(downs))


class RecordingReader(io.BytesIO):
    """A byte source that logs the size of every read request."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.requests: list[int] = []

    def read(self, size=-1):
        self.requests.append(size)
        return super().read(size)


def roundtrip_stream(header, tensor):
    buf = io.BytesIO()
    nbytes = write_stream(header, tensor, buf)
    buf.seek(0)
    got_header, got_tensor = read_stream(buf)
    return nbytes, got_header, got_tensor


class TestBlockGeometry:
    def test_default_mixed_radix_block(self):
        # 48 indices of 625 values need ceil(48*log2(625)) = 446 bits
        assert frame_bits(DEFAULT, MODE_MIXED_RADIX) == 446
        assert frame_block_bytes(DEFAULT, MODE_MIXED_RADIX) == 56
        assert 446 * 25 == 11150  # bits/frame at 25 fps

    def test_default_fixed_width_block(self):
        assert frame_bits(DEFAULT, MODE_FIXED_WIDTH) == 48 * 10
        assert frame_block_bytes(DEFAULT, MODE_FIXED_WIDTH) == 60

    def test_single_bit_config(self):
        assert frame_bits(TINY, MODE_MIXED_RADIX) == 1
        assert frame_bits(TINY, MODE_FIXED_WIDTH) == 1

    def test_within_one_bit_of_theory(self):
        import math

        for cfg in (DEFAULT, TINY, GrfsqConfig(3, 2, LevelSpec((4, 6)), 2)):
            exact = cfg.num_groups * cfg.num_residuals * math.log2(cfg.codebook_size)
            packed = frame_bits(cfg, MODE_MIXED_RADIX)
            assert 0 <= packed - exact < 1

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            frame_bits(DEFAULT, 7)


class TestFramePack:
    def test_zero_indices_zero_block(self):
        for mode in (MODE_MIXED_RADIX, MODE_FIXED_WIDTH):
            block = frame_pack(np.zeros((12, 4), dtype=np.int64), DEFAULT, mode)
            assert block == bytes(frame_block_bytes(DEFAULT, mode))

    def test_single_index_single_bit(self):
        assert frame_pack([1], TINY, MODE_MIXED_RADIX) == b"\x80"
        assert frame_pack([0], TINY, MODE_MIXED_RADIX) == b"\x00"

    def test_group_major_digit_order(self):
        cfg = GrfsqConfig(2, 1, LevelSpec((4,)), 1)  # base-4 digits, 4 bits total
        # digits (g0, g1) = (1, 2) -> value 1 + 2*4 = 9 -> '1001' padded to a byte
        block = frame_pack(np.array([[1], [2]]), cfg, MODE_MIXED_RADIX)
        assert block == (9 << 4).to_bytes(1, "big")

    def test_fixed_width_layout(self):
        cfg = GrfsqConfig(2, 1, LevelSpec((4,)), 1)  # 2 bits per index
        block = frame_pack(np.array([[1], [2]]), cfg, MODE_FIXED_WIDTH)
        # first index in the most significant bits: 01 10 0000
        assert block == bytes([0b01100000])

    def test_rejects_overflow_index(self):
        bad = np.zeros((12, 4), dtype=np.int64)
        bad[3, 1] = 625
        with pytest.raises(InvalidIndex):
            frame_pack(bad, DEFAULT, MODE_MIXED_RADIX)

    @pytest.mark.parametrize("mode", [MODE_MIXED_RADIX, MODE_FIXED_WIDTH])
    def test_round_trip_many(self, mode):
        rng = np.random.default_rng(21)
        for _ in range(200):
            tensor = rng.integers(0, 625, size=(12, 4))
            block = frame_pack(tensor, DEFAULT, mode)
            assert len(block) == frame_block_bytes(DEFAULT, mode)
            assert np.array_equal(frame_unpack(block, DEFAULT, mode), tensor)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, data):
        levels = tuple(data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
        cfg = GrfsqConfig(
            data.draw(st.integers(1, 4)),
            data.draw(st.integers(1, 3)),
            LevelSpec(levels),
            len(levels),
        )
        mode = data.draw(st.sampled_from([MODE_MIXED_RADIX, MODE_FIXED_WIDTH]))
        flat = [
            data.draw(st.integers(0, cfg.codebook_size - 1))
            for _ in range(cfg.num_groups * cfg.num_residuals)
        ]
        tensor = np.asarray(flat).reshape(cfg.num_groups, cfg.num_residuals)
        assert np.array_equal(frame_unpack(frame_pack(tensor, cfg, mode), cfg, mode), tensor)


    @pytest.mark.parametrize("shape", [(4, 12), (47,), (1, 12, 4)])
    def test_wrongly_shaped_block_fails(self, shape):
        with pytest.raises(InvalidInput, match="expected 48 indices"):
            frame_pack(np.zeros(shape, dtype=np.int64), DEFAULT)


class TestFrameUnpack:
    def test_wrong_size(self):
        with pytest.raises(CorruptStream):
            frame_unpack(b"\x00" * 55, DEFAULT, MODE_MIXED_RADIX)

    def test_nonzero_padding_detected(self):
        block = bytearray(frame_pack(np.zeros((12, 4), dtype=np.int64), DEFAULT, MODE_MIXED_RADIX))
        block[-1] |= 0x01  # lowest bit is padding (446 bits of 448)
        with pytest.raises(CorruptStream):
            frame_unpack(bytes(block), DEFAULT, MODE_MIXED_RADIX)

    def test_mixed_radix_value_overflow_detected(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((5,)), 1)  # 3 bits for 5 values
        block = (7 << 5).to_bytes(1, "big")  # value 7 >= 5
        with pytest.raises(CorruptStream):
            frame_unpack(block, cfg, MODE_MIXED_RADIX)

    def test_fixed_width_index_overflow_detected(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((5,)), 1)
        block = (7 << 5).to_bytes(1, "big")
        with pytest.raises(CorruptStream):
            frame_unpack(block, cfg, MODE_FIXED_WIDTH)


class TestStreamRoundTrip:
    def test_empty_stream(self):
        header = StreamHeader(config=DEFAULT, frame_count=0, fps=25.0)
        nbytes, got_header, got_tensor = roundtrip_stream(
            header, np.zeros((0, 12, 4), dtype=np.int64)
        )
        assert got_header == header
        assert got_tensor.shape == (0, 12, 4)

    def test_default_payload_size(self):
        rng = np.random.default_rng(22)
        tensor = rng.integers(0, 625, size=(25, 12, 4))
        header = StreamHeader(config=DEFAULT, frame_count=25, fps=25.0)
        buf = io.BytesIO()
        total = write_stream(header, tensor, buf)
        header_len = total - 25 * 56
        assert 25 * 56 == 1400  # payload bytes
        assert header_len == len(buf.getvalue()) - 1400

    @pytest.mark.parametrize("mode", [MODE_MIXED_RADIX, MODE_FIXED_WIDTH])
    def test_many_frames_round_trip(self, mode):
        rng = np.random.default_rng(23)
        tensor = rng.integers(0, 625, size=(40, 12, 4))
        header = StreamHeader(config=DEFAULT, frame_count=40, fps=30.0, packing_mode=mode)
        _, got_header, got_tensor = roundtrip_stream(header, tensor)
        assert got_header == header
        assert np.array_equal(got_tensor, tensor)

    def test_projected_header_round_trip(self):
        cfg = projected_config()
        rng = np.random.default_rng(24)
        tensor = rng.integers(0, cfg.codebook_size, size=(5, 2, 3))
        header = StreamHeader(config=cfg, frame_count=5, fps=25.0)
        _, got_header, got_tensor = roundtrip_stream(header, tensor)
        assert got_header == header
        for a, b in zip(got_header.config.projections, cfg.projections):
            assert np.array_equal(a, b)
        assert np.array_equal(got_tensor, tensor)

    def test_byte_level_idempotence(self):
        cfg = projected_config()
        tensor = np.random.default_rng(25).integers(0, cfg.codebook_size, size=(3, 2, 3))
        header = StreamHeader(config=cfg, frame_count=3, fps=25.0)
        buf1 = io.BytesIO()
        write_stream(header, tensor, buf1)
        buf1.seek(0)
        header2, tensor2 = read_stream(buf1)
        buf2 = io.BytesIO()
        write_stream(header2, tensor2, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_fps_is_held_as_the_stream_stores_it(self):
        stored = float(np.float32(29.97))
        header = StreamHeader(config=DEFAULT, frame_count=0, fps=29.97)
        assert type(header.fps) is float and header.fps == stored
        _, got_header, _ = roundtrip_stream(header, np.zeros((0, 12, 4), dtype=np.int64))
        assert got_header.fps == header.fps and got_header == header

    def test_group_dim_past_16_bits_fails(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((3,)), 70000, np.eye(1, 70000)[None])
        with pytest.raises(InvalidConfig, match="16 bits"):
            StreamHeader(config=cfg, frame_count=0, fps=25.0)

    def test_header_tensor_mismatch(self):
        header = StreamHeader(config=DEFAULT, frame_count=2, fps=25.0)
        with pytest.raises(ConfigMismatch):
            write_stream(header, np.zeros((3, 12, 4), dtype=np.int64), io.BytesIO())

    @pytest.mark.parametrize("mode", [MODE_MIXED_RADIX, MODE_FIXED_WIDTH])
    def test_bad_index_in_the_last_frame_leaves_the_sink_empty(self, mode):
        frames = 3 * _PACK_CELLS // 48 + 1  # the payload spans four packing runs
        tensor = np.zeros((frames, 12, 4), dtype=np.int64)
        tensor[-1, -1, -1] = 625
        header = StreamHeader(config=DEFAULT, frame_count=frames, fps=25.0, packing_mode=mode)
        sink = io.BytesIO()
        with pytest.raises(InvalidIndex):
            write_stream(header, tensor, sink)
        assert sink.getvalue() == b""


class TestUnroundedProjections:
    """A config holds its projections at the single precision a stream header
    stores, even when built from float64 matrices, so the header reads back
    equal and a decode of the stream equals the encoder's reconstruction."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_header_and_decode_survive_the_stream(self, data):
        levels = tuple(data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
        d = len(levels)
        G, R = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        group_dim = d + data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        downs = tuple(
            np.linalg.qr(rng.normal(size=(group_dim, group_dim)))[0][:, :d].T for _ in range(G)
        )
        cfg = GrfsqConfig(G, R, LevelSpec(levels), group_dim, downs)
        T = data.draw(st.integers(1, 32))
        tokens, recon, _ = quantize_sequence(rng.uniform(-3, 3, size=(T, cfg.total_dim)), cfg)
        mode = data.draw(st.sampled_from([MODE_MIXED_RADIX, MODE_FIXED_WIDTH]))
        header = StreamHeader(cfg, T, 25.0, mode)
        _, got_header, got_tokens = roundtrip_stream(header, tokens)
        assert got_header == header
        assert np.array_equal(grfsq_dequantize(got_tokens, got_header.config), recon)
        assert np.array_equal(cfg.projections, cfg.projections.astype(np.float32))

    @pytest.mark.parametrize("big", [1e39, 1e200])
    def test_entry_past_single_precision_is_not_orthonormal(self, big):
        down = np.eye(2, 3)
        down[0, 2] = big
        with pytest.raises(InvalidConfig, match="not orthonormal"):
            GrfsqConfig(1, 1, LevelSpec((3, 3)), 3, (down,))


class TestReadCostBoundedByBytes:
    """255 groups x 255 residuals over a 63-bit codebook: the exact block
    width is a power of about four million bits, so reading must not compute
    it until the payload could hold the declared blocks."""

    @staticmethod
    def huge_header(frame_count: int) -> bytes:
        levels = bytes([255] * 7 + [131])
        return (
            struct.pack("<4sBBBB", b"GRFQ", STREAM_VERSION, 255, 255, len(levels))
            + levels
            + struct.pack("<HHIfBB", 8, 255 * 8, frame_count, 25.0, MODE_MIXED_RADIX, 0)
        )

    @staticmethod
    def count_width_calls(monkeypatch) -> list:
        from grfsq import bitstream

        calls = []

        def counted(cfg, mode):
            calls.append(mode)
            return frame_bits(cfg, mode)

        monkeypatch.setattr(bitstream, "frame_bits", counted)
        return calls

    def test_zero_frames_read_without_the_exact_width(self, monkeypatch):
        calls = self.count_width_calls(monkeypatch)
        raw = self.huge_header(0)
        assert len(raw) == 30
        header, tensor = read_stream(io.BytesIO(raw))
        assert header.frame_count == 0
        assert tensor.shape == (0, 255, 255)
        with pytest.raises(CorruptStream, match="trailing data"):
            read_stream(io.BytesIO(raw + b"\0"))
        assert calls == []

    def test_missing_payload_reported_without_the_exact_width(self, monkeypatch):
        calls = self.count_width_calls(monkeypatch)
        with pytest.raises(CorruptStream, match="truncated payload"):
            read_stream(io.BytesIO(self.huge_header(1)))
        assert calls == []

    @pytest.mark.parametrize("mode", [MODE_MIXED_RADIX, MODE_FIXED_WIDTH])
    def test_valid_stream_computes_the_width_once(self, monkeypatch, mode):
        tensor = np.random.default_rng(27).integers(0, 625, size=(5, 12, 4))
        header = StreamHeader(config=DEFAULT, frame_count=5, fps=25.0, packing_mode=mode)
        buf = io.BytesIO()
        write_stream(header, tensor, buf)
        calls = self.count_width_calls(monkeypatch)
        _, got = read_stream(io.BytesIO(buf.getvalue()))
        assert np.array_equal(got, tensor)
        assert calls == [mode]


class TestCorruptionDetection:
    def make_stream(self, frame_count=3) -> bytes:
        rng = np.random.default_rng(26)
        tensor = rng.integers(0, 625, size=(frame_count, 12, 4))
        header = StreamHeader(config=DEFAULT, frame_count=frame_count, fps=25.0)
        buf = io.BytesIO()
        write_stream(header, tensor, buf)
        return buf.getvalue()

    def test_bad_magic(self):
        raw = bytearray(self.make_stream())
        raw[0] ^= 0xFF
        with pytest.raises(CorruptStream, match="magic"):
            read_stream(io.BytesIO(bytes(raw)))

    def test_writes_the_one_version(self):
        assert self.make_stream()[4] == STREAM_VERSION
        with pytest.raises(TypeError):
            StreamHeader(config=DEFAULT, frame_count=1, fps=25.0, version=2)

    def test_bad_version(self):
        raw = bytearray(self.make_stream())
        raw[4] = 99
        with pytest.raises(CorruptStream, match="version"):
            read_stream(io.BytesIO(bytes(raw)))

    def test_truncated_payload(self):
        raw = self.make_stream()
        with pytest.raises(CorruptStream, match="truncated"):
            read_stream(io.BytesIO(raw[:-10]))

    def test_truncated_header(self):
        raw = self.make_stream()
        with pytest.raises(CorruptStream, match="truncated"):
            read_stream(io.BytesIO(raw[:9]))

    def test_trailing_data(self):
        raw = self.make_stream()
        with pytest.raises(CorruptStream, match="trailing"):
            read_stream(io.BytesIO(raw + b"\x00"))

    def test_single_byte_header_corruption(self):
        # every header byte except the fps field participates in validation;
        # fps is free-standing data, so flips there are indistinguishable
        # from a legitimate value
        raw = self.make_stream()
        header_len = len(raw) - 3 * 56
        fps_range = range(20, 24)
        for pos in range(header_len):
            if pos in fps_range:
                continue
            for mask in (0x01, 0xFF):
                corrupted = bytearray(raw)
                corrupted[pos] ^= mask
                with pytest.raises(CorruptStream):
                    read_stream(io.BytesIO(bytes(corrupted)))

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -5.0, 0.0])
    def test_invalid_fps_rejected(self, fps):
        raw = bytearray(self.make_stream())
        raw[20:24] = struct.pack("<f", fps)
        with pytest.raises(CorruptStream, match="fps"):
            read_stream(io.BytesIO(bytes(raw)))
        with pytest.raises(InvalidConfig, match="fps"):
            StreamHeader(config=DEFAULT, frame_count=3, fps=fps)

    @pytest.mark.parametrize("fps", [1e39, 1e-50])
    def test_fps_must_survive_single_precision(self, fps):
        with pytest.raises(InvalidConfig, match="single-precision"):
            StreamHeader(config=DEFAULT, frame_count=3, fps=fps)

    def test_huge_frame_count_rejected_before_allocation(self):
        raw = bytearray(self.make_stream())
        raw[16:20] = struct.pack("<I", 2**32 - 1)
        with pytest.raises(CorruptStream, match="truncated payload"):
            read_stream(io.BytesIO(bytes(raw)))

    def projected_stream(self) -> bytes:
        cfg = projected_config()
        tensor = np.zeros((2, 2, 3), dtype=np.int64)
        buf = io.BytesIO()
        write_stream(StreamHeader(config=cfg, frame_count=2, fps=25.0), tensor, buf)
        return buf.getvalue()

    # projected_config(): d = 2, so group_dim is the u16 at offset 10 and
    # total_dim the u16 at offset 12; 2 groups, group_dim 6.
    @pytest.mark.parametrize(
        "group_dim, total_dim, match",
        [
            (30000, 12, "total_dim"),  # dims disagree: rejected before any projection read
            (30000, 60000, "truncated projections"),  # 480 kB declared, 56 present
        ],
    )
    def test_corrupted_projection_dims_read_bounded(self, group_dim, total_dim, match):
        raw = bytearray(self.projected_stream())
        assert struct.unpack("<HH", raw[10:14]) == (6, 12)
        raw[10:14] = struct.pack("<HH", group_dim, total_dim)
        reader = RecordingReader(bytes(raw))
        with pytest.raises(CorruptStream, match=match):
            read_stream(reader)
        assert reader.requests
        assert max(reader.requests) <= len(raw) + _READ_CHUNK

    def test_projection_block_read_in_chunks(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((3, 3)), 20000, (np.eye(2, 20000),))
        buf = io.BytesIO()
        write_stream(StreamHeader(config=cfg, frame_count=1, fps=25.0), np.zeros((1, 1, 1)), buf)
        reader = RecordingReader(buf.getvalue())
        header, _ = read_stream(reader)
        assert header == StreamHeader(config=cfg, frame_count=1, fps=25.0)
        sized = [n for n in reader.requests if n is not None and n >= 0]
        assert max(sized) == _READ_CHUNK  # 160 kB of projections, three requests

    def test_fps_field_offset_assumption(self):
        # guard for the offsets used above
        raw = self.make_stream()
        assert raw[:4] == b"GRFQ"
        (fps,) = struct.unpack("<f", raw[20:24])
        assert fps == 25.0


def payload_of(header, tensor) -> bytes:
    """The packed payload `write_stream` writes after the header."""
    empty = io.BytesIO()
    write_stream(StreamHeader(header.config, 0, header.fps, header.packing_mode), tensor[:0], empty)
    buf = io.BytesIO()
    write_stream(header, tensor, buf)
    return buf.getvalue()[len(empty.getvalue()) :]


class TestBatchPackerMatchesReference:
    """The whole-payload packer equals the per-frame big-integer reference
    byte for byte, in both directions and both modes."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_frame_reference(self, data):
        levels = data.draw(
            st.one_of(
                st.lists(st.integers(2, 9), min_size=1, max_size=4),
                # 255**7 < 2**63, so every draw is a valid config
                st.lists(st.integers(2, 255), min_size=1, max_size=7),
                # the largest codebook a config allows: 255**7 * 131 is just
                # under 2**63, so each mixed-radix limb holds a single digit
                st.just([255] * 7 + [131]),
            )
        )
        cfg = GrfsqConfig(
            data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)),
            LevelSpec(tuple(levels)), len(levels),
        )
        mode = data.draw(st.sampled_from([MODE_MIXED_RADIX, MODE_FIXED_WIDTH]))
        T = data.draw(st.sampled_from([0, 1, 257]))
        size = cfg.codebook_size
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (T, cfg.num_groups, cfg.num_residuals)
        tensor = rng.integers(0, size, size=shape, dtype=np.int64)
        if T:
            tensor[0] = size - 1  # every digit at its maximum
            tensor[-1, 0, 0] = 0
        header = StreamHeader(config=cfg, frame_count=T, fps=25.0, packing_mode=mode)

        nbytes = frame_block_bytes(cfg, mode)
        blocks = [reference_pack(frame.reshape(-1).tolist(), cfg, mode) for frame in tensor]
        payload = payload_of(header, tensor)
        assert payload == b"".join(blocks)
        assert len(payload) == T * nbytes

        buf = io.BytesIO()
        write_stream(header, tensor, buf)
        buf.seek(0)
        _, got = read_stream(buf)
        assert got.shape == shape
        assert got.tolist() == [reference_unpack(b, cfg, mode) for b in blocks]
        if T:
            assert frame_pack(tensor[-1], cfg, mode) == blocks[-1]
            assert frame_unpack(blocks[-1], cfg, mode).tolist() == reference_unpack(
                blocks[-1], cfg, mode
            )

    PADDED_FIXED = GrfsqConfig(1, 3, LevelSpec((5,)), 1)  # 3 x 3 bits in 2 bytes

    @staticmethod
    def corrupt(cfg, mode, frame_count, damage):
        """A valid stream whose frames are edited by damage(block, t) -> block."""
        tensor = np.random.default_rng(27).integers(
            0, cfg.codebook_size, size=(frame_count, cfg.num_groups, cfg.num_residuals)
        )
        header = StreamHeader(config=cfg, frame_count=frame_count, fps=25.0, packing_mode=mode)
        nbytes = frame_block_bytes(cfg, mode)
        payload = payload_of(header, tensor)
        raw = io.BytesIO()
        write_stream(header, tensor, raw)
        head = raw.getvalue()[: -len(payload)]
        blocks = [payload[t * nbytes : (t + 1) * nbytes] for t in range(frame_count)]
        return head + b"".join(damage(block, t) for t, block in enumerate(blocks))

    @staticmethod
    def set_padding(block: bytes) -> bytes:
        return block[:-1] + bytes([block[-1] | 0x01])

    @staticmethod
    def overflow(cfg, mode):
        """A block whose value is past the codebook range, padding still zero."""
        nbits = frame_bits(cfg, mode)
        nbytes = frame_block_bytes(cfg, mode)
        if mode == MODE_MIXED_RADIX:
            value = (1 << nbits) - 1  # >= size**count, since nbits is the minimum
        else:
            width = (cfg.codebook_size - 1).bit_length()
            value = ((1 << width) - 1) << (nbits - width)  # first index all ones
        return (value << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")

    @pytest.mark.parametrize(
        "cfg, mode",
        [(DEFAULT, MODE_MIXED_RADIX), (PADDED_FIXED, MODE_FIXED_WIDTH)],
        ids=["mixed-radix", "fixed-width"],
    )
    @pytest.mark.parametrize("kind", ["padding", "range"])
    def test_corruption_in_a_later_frame(self, cfg, mode, kind):
        assert frame_block_bytes(cfg, mode) * 8 > frame_bits(cfg, mode)  # has padding
        bad = self.overflow(cfg, mode)

        def damage(block, t):
            if t != 3:
                return block
            return self.set_padding(block) if kind == "padding" else bad

        raw = self.corrupt(cfg, mode, 600, damage)  # frame 3 of 600, past one pass
        match = "padding" if kind == "padding" else "codebook range"
        with pytest.raises(CorruptStream, match=match):
            read_stream(io.BytesIO(raw))

    @pytest.mark.parametrize(
        "cfg, mode",
        [(DEFAULT, MODE_MIXED_RADIX), (PADDED_FIXED, MODE_FIXED_WIDTH)],
        ids=["mixed-radix", "fixed-width"],
    )
    def test_first_bad_frame_is_reported(self, cfg, mode):
        bad = self.overflow(cfg, mode)

        def damage(block, t):
            if t == 2:
                return bad
            return self.set_padding(block) if t in (5, 599) else block

        raw = self.corrupt(cfg, mode, 600, damage)
        with pytest.raises(CorruptStream, match="codebook range"):
            read_stream(io.BytesIO(raw))


@pytest.mark.parametrize("mode", [MODE_MIXED_RADIX, MODE_FIXED_WIDTH], ids=["mixed", "fixed"])
@pytest.mark.parametrize(
    "levels",
    # base 2: 62 digits per limb; [255]*7 + [131]: one digit per limb in both
    # modes, fixed-width at base 2**63
    [(2,), (255,) * 7 + (131,)],
    ids=["base-2", "largest-codebook"],
)
def test_limb_extremes_match_reference(levels, mode):
    # 128 digits a frame: at base 2, two full limbs and a top limb of 4 digits
    cfg = GrfsqConfig(16, 8, LevelSpec(levels), len(levels))
    size = cfg.codebook_size
    tensor = np.random.default_rng(29).integers(0, size, size=(70, 16, 8), dtype=np.int64)
    tensor[0] = size - 1
    tensor[-1] = 0
    header = StreamHeader(config=cfg, frame_count=70, fps=25.0, packing_mode=mode)
    blocks = [reference_pack(frame.reshape(-1).tolist(), cfg, mode) for frame in tensor]
    assert payload_of(header, tensor) == b"".join(blocks)
    buf = io.BytesIO()
    write_stream(header, tensor, buf)
    buf.seek(0)
    _, got = read_stream(buf)
    assert got.tolist() == [reference_unpack(b, cfg, mode) for b in blocks]


class TestStreamFuzz:
    """Mutated, truncated and extended streams either decode to a stream that
    re-encodes to the same bytes, or raise CorruptStream; never anything else."""

    @staticmethod
    def valid_stream(data) -> bytes:
        levels = tuple(data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
        d = len(levels)
        G, R = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        projections, group_dim = None, d
        if data.draw(st.booleans()):
            group_dim = d + data.draw(st.integers(0, 2))
            projections = tuple(
                np.linalg.qr(rng.normal(size=(group_dim, group_dim)))[0][:, :d].T
                .astype(np.float32).astype(np.float64)
                for _ in range(G)
            )
        cfg = GrfsqConfig(G, R, LevelSpec(levels), group_dim, projections)
        mode = data.draw(st.sampled_from([MODE_MIXED_RADIX, MODE_FIXED_WIDTH]))
        T = data.draw(st.integers(0, 64))
        tensor = rng.integers(0, cfg.codebook_size, size=(T, G, R))
        buf = io.BytesIO()
        write_stream(StreamHeader(cfg, T, 25.0, mode), tensor, buf)
        return buf.getvalue()

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_streams(self, data):
        raw = bytearray(self.valid_stream(data))
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(["set", "flip", "truncate", "extend"]))
            if kind == "truncate":
                del raw[data.draw(st.integers(0, len(raw))) :]
            elif kind == "extend":
                raw += data.draw(st.binary(min_size=1, max_size=16))
            elif raw:
                pos = data.draw(st.integers(0, len(raw) - 1))
                if kind == "set":
                    raw[pos] = data.draw(st.integers(0, 255))
                else:
                    raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        try:
            header, tensor = read_stream(io.BytesIO(bytes(raw)))
        except CorruptStream:
            return
        buf = io.BytesIO()
        write_stream(header, tensor, buf)
        assert buf.getvalue() == bytes(raw)
