"""The one rule for integer index arrays (codes, flat indices, tokens):
an integer dtype, or floats that are all finite whole numbers, each value
in [0, high). Every public entry point that takes such an array applies it
through ``fsq._checked_ints`` and raises its own error class."""

import io

import numpy as np
import pytest

from grfsq.baselines import BaselineConfig, baseline_utilization
from grfsq.bitstream import StreamHeader, frame_pack, write_stream
from grfsq.errors import InvalidCode, InvalidIndex, InvalidInput
from grfsq.fsq import LevelSpec, _checked_ints, codes_to_index, fsq_dequantize
from grfsq.generation import (
    BigramPredictor,
    ControlTrack,
    EchoPredictor,
    RowGrid,
    SpeechTokenSeq,
    generate,
    nll,
)
from grfsq.quantizer import GrfsqConfig, grfsq_dequantize, utilization

G, R, C = 2, 2, 3
CFG = GrfsqConfig(G, R, LevelSpec((C,)), 1)
SPEC = LevelSpec((2, 3))
# every value is 0 or 1, so the bool view of each array holds the same numbers
TOKENS = np.array([[[0, 1], [1, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]])


def speech(T: int) -> SpeechTokenSeq:
    return SpeechTokenSeq(np.arange(T) % 4, vocab=4)


def run_generate(predictor, T: int) -> np.ndarray:
    controls = ControlTrack(np.zeros((T, 3)), np.zeros((T, 2)), np.zeros((T, 2)))
    return generate(predictor, np.zeros(0), speech(T), controls, num_layers=R, num_groups=G)


def stream_bytes(tensor) -> bytes:
    sink = io.BytesIO()
    write_stream(StreamHeader(CFG, frame_count=len(tensor), fps=25.0), tensor, sink)
    return sink.getvalue()


# name: (call on the index array, a valid index array, error class)
SITES = {
    "fsq_dequantize": (lambda a: fsq_dequantize(a, SPEC), np.array([1, 0]), InvalidCode),
    "codes_to_index": (lambda a: codes_to_index(a, SPEC), np.array([1, 0]), InvalidCode),
    "grfsq_dequantize": (lambda a: grfsq_dequantize(a, CFG), TOKENS, InvalidIndex),
    "frame_pack": (lambda a: frame_pack(a, CFG), TOKENS[0], InvalidIndex),
    "write_stream": (stream_bytes, TOKENS, InvalidIndex),
    "utilization": (
        lambda a: utilization(a, CFG).per_codebook_percent, TOKENS, InvalidIndex,
    ),
    "baseline_utilization": (
        lambda a: baseline_utilization(a, BaselineConfig("grvq", C, groups=G, residuals=R))
        .per_codebook_percent,
        TOKENS, InvalidIndex,
    ),
    "SpeechTokenSeq": (lambda a: SpeechTokenSeq(a, vocab=4).tokens, TOKENS[:, 0, 0], InvalidInput),
    "RowGrid": (
        lambda a: np.asarray(RowGrid(np.full((2, C), 1.0 / C), a)), TOKENS[:, :, 0], InvalidInput,
    ),
    "nll": (
        lambda a: nll(np.full((len(a), G, C), 1.0 / C), a), TOKENS[:, :, 0], InvalidInput,
    ),
    "BigramPredictor.fit": (
        lambda a: run_generate(BigramPredictor.fit(a, speech(len(a)), C), len(a)),
        TOKENS, InvalidInput,
    ),
    "EchoPredictor": (lambda a: run_generate(EchoPredictor(a, C), len(a)), TOKENS, InvalidInput),
}
# sites whose input may have no rows (the code and frame functions take fixed shapes)
ROWS = [name for name in SITES if name not in ("fsq_dequantize", "codes_to_index", "frame_pack")]


def site(name):
    call, good, error = SITES[name]
    return call, good.copy(), error


class TestCheckedInts:
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
    def test_integer_dtypes_pass_as_a_fresh_int64_array(self, dtype):
        values = np.array([0, 3, 1], dtype=dtype)
        out = _checked_ints(values, 4, "x", InvalidIndex)
        assert out.dtype == np.int64 and out.tolist() == [0, 3, 1]
        out[0] = 2
        assert values[0] == 0

    def test_whole_floats_pass(self):
        assert _checked_ints([0.0, -0.0, 3.0], 4, "x", InvalidIndex).tolist() == [0, 0, 3]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_empty_arrays_pass(self, dtype):
        out = _checked_ints(np.zeros((0, 2), dtype=dtype), 4, "x", InvalidIndex)
        assert out.shape == (0, 2) and out.dtype == np.int64

    @pytest.mark.parametrize("bad", [
        np.array([True, False]),
        np.array([0.0, 1.5]),
        np.array([0.0, np.nan]),
        np.array([0.0, np.inf]),
        np.array([0.0, -np.inf]),
        np.array([0, 1], dtype=object),
        np.array(["0", "1"]),
        np.array([0j, 1j]),
    ], ids=["bool", "fraction", "nan", "inf", "-inf", "object", "str", "complex"])
    def test_non_integers_fail(self, bad):
        with pytest.raises(InvalidIndex, match="integers"):
            _checked_ints(bad, 4, "x", InvalidIndex)

    @pytest.mark.parametrize("bad", [
        np.array([-1, 0]),
        np.array([0, 4]),
        np.array([2**64 - 1], dtype=np.uint64),
        np.array([1e30]),
    ], ids=["negative", "high", "uint64-max", "huge-float"])
    def test_out_of_range_fails(self, bad):
        with pytest.raises(InvalidInput, match=r"\[0, 4\)"):
            _checked_ints(bad, 4, "x", InvalidInput)

    def test_high_broadcasts_per_position(self):
        assert _checked_ints([1, 2], (2, 3), "codes", InvalidCode).tolist() == [1, 2]
        with pytest.raises(InvalidCode):
            _checked_ints([2, 2], (2, 3), "codes", InvalidCode)


@pytest.mark.parametrize("name", sorted(SITES))
class TestEverySite:
    def test_whole_floats_act_as_integers(self, name):
        call, good, _ = site(name)
        assert np.array_equal(np.asarray(call(good.astype(np.float64))), np.asarray(call(good)))

    def test_bool_fails(self, name):
        call, good, error = site(name)
        with pytest.raises(error, match="integers"):
            call(good.astype(bool))

    def test_fraction_fails(self, name):
        call, good, error = site(name)
        bad = good.astype(np.float64)
        bad.flat[-1] = 0.5
        with pytest.raises(error, match="integers"):
            call(bad)

    @pytest.mark.parametrize("value", [-1, 10**6])
    def test_out_of_range_fails(self, name, value):
        call, good, error = site(name)
        good.flat[-1] = value
        with pytest.raises(error, match="must lie in"):
            call(good)


@pytest.mark.parametrize("name", ROWS)
def test_empty_float_rows_pass(name):
    call, good, _ = site(name)
    empty = np.zeros((0,) + good.shape[1:])
    assert np.array_equal(np.asarray(call(empty)), np.asarray(call(empty.astype(np.int64))))


class TestEchoTargets:
    def test_inferred_class_count_still_checks_targets(self):
        for bad in ([-1.0], [1.7], [np.nan], [True]):
            with pytest.raises(InvalidInput):
                EchoPredictor(np.array(bad).reshape(1, 1, 1))
        assert EchoPredictor(np.array([2.0]).reshape(1, 1, 1)).num_classes == 3
        assert EchoPredictor(np.zeros((0, 1, 1))).num_classes == 1
