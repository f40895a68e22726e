"""Refusal paths no other test reaches: each call below ends in its typed
error, its exit code or its documented result."""

import contextlib
import io
import json

import numpy as np
import pytest

from grfsq.baselines import (
    BaselineConfig, Codebook, baseline_bitrate, baseline_encode, baseline_utilization,
    fit_codebooks, kmeans_fit,
)
from grfsq.bitstream import (
    StreamHeader, frame_bits, frame_block_bytes, frame_pack, frame_unpack, write_stream,
)
from grfsq.cli import main
from grfsq.errors import (
    ConfigMismatch,
    InvalidCode,
    InvalidConfig,
    InvalidInput,
    PredictorContractViolation,
)
from grfsq.fsq import LevelSpec, fsq_dequantize
from grfsq.generation import (
    BigramPredictor,
    ControlTrack,
    EchoPredictor,
    RowGrid,
    SpeechTokenSeq,
    argmax_sample,
    assemble_context,
    generate,
    load_controls,
    nll,
    validate_prediction_grid,
)
from grfsq.quantizer import (
    GrfsqConfig, bitrate, calibrate_projections, float_stream_bitrate, grfsq_dequantize,
    grfsq_quantize, quantize_sequence, utilization,
)

T, G = 4, 3
CFG = GrfsqConfig(12, 4, LevelSpec((5, 5, 5, 5)), 4)
SPEECH = SpeechTokenSeq(tokens=np.arange(T), vocab=T)
CONTROLS = ControlTrack(np.zeros((T, 3)), np.zeros((T, 2)), np.zeros((T, 2)))
ROW_GRID = RowGrid(np.full((1, 2), 0.5), np.zeros((T, G), dtype=int))
NO_SPEECH = SpeechTokenSeq(tokens=np.zeros(0, dtype=int), vocab=T)
NO_CONTROLS = ControlTrack(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 2)))


def context(layer):
    prev = np.zeros((T, G), dtype=int) if layer else None
    return assemble_context(np.zeros(0), layer, SPEECH, CONTROLS, prev_tokens=prev, num_groups=G)


def ablate_gvq_5_groups_on_48_wide_frames(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps([0.5] * 48) + "\n" for _ in range(8)))
    return main(["ablate", str(path), "--schemes", "gvq", "--gvq-groups", "5", "--gvq-k", "2"])


def encode_levels_past_a_byte(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps([0.5] * 48) + "\n" for _ in range(4)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["encode", str(path), str(tmp_path / "x.grfq"), "--groups", "24",
                     "--levels", "256,2"])
    return code, err.getvalue()


def ablate_vq_on_zero_width_frames(iters):
    def call(tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("[]\n" * 4)  # zero-width frames load; k-means cannot fit them
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["ablate", str(path), "--schemes", "vq", "--vq-k", "2",
                         "--kmeans-iters", str(iters)])
        return code, err.getvalue()
    return call


ZERO_WIDTH = "error: k-means needs frames of at least one value, got zero-width frames\n"


def controls_with_blank_lines(tmp_path):
    good = json.dumps({"h": [0, 0, 0], "g": [0, 0], "b": [0, 0]})
    bad = json.dumps({"h": [0, 0], "g": [0, 0], "b": [0, 0]})
    path = tmp_path / "controls.jsonl"
    path.write_text(f"{good}\n\n{good}\n   \n\n{bad}\n")  # the bad record is line 6
    return load_controls(path)


# id: (call on tmp_path, the error class raised or the value returned, message pattern)
CASES = {
    "SpeechTokenSeq 2-D tokens": (
        lambda _: SpeechTokenSeq(np.zeros((2, 2), dtype=int)), InvalidInput, "must be 1-D",
    ),
    "assemble_context prev_tokens shape": (
        lambda _: assemble_context(np.zeros(0), 1, SPEECH, CONTROLS, prev_tokens=np.zeros(T)),
        InvalidInput, r"prev_tokens must have shape \(4, groups\)",
    ),
    "assemble_context prev_tokens groups": (
        lambda _: assemble_context(
            np.zeros(0), 1, SPEECH, CONTROLS, prev_tokens=np.zeros((T, 2)), num_groups=G
        ),
        InvalidInput, "prev_tokens have 2 groups, expected 3",
    ),
    "assemble_context ragged prev_tokens": (
        lambda _: assemble_context(
            np.zeros(0), 1, SPEECH, CONTROLS, prev_tokens=[[0] * G] * (T - 1) + [[0, 0, [0, 0]]]
        ),
        InvalidInput, "prev_tokens is ragged",
    ),
    "assemble_context no groups": (
        lambda _: assemble_context(np.zeros(0), 0, SPEECH, CONTROLS),
        InvalidInput, "num_groups is required",
    ),
    "assemble_context zero groups inferred from prev_tokens": (
        lambda _: assemble_context(np.zeros(0), 1, SPEECH, CONTROLS,
                                   prev_tokens=np.zeros((T, 0), dtype=int)),
        InvalidInput, "prev_tokens groups must be >= 1, got 0",
    ),
    "RowGrid 1-D rows": (
        lambda _: RowGrid(np.full(2, 0.5), np.zeros((T, G), dtype=int)),
        InvalidInput, r"row grid needs \(P, C\) rows",
    ),
    "RowGrid asarray without copy": (
        lambda _: np.asarray(ROW_GRID, copy=False), ValueError, "without a copy",
    ),
    "validate_prediction_grid 2-D grid": (
        lambda _: validate_prediction_grid(np.full((T, 2), 0.5)),
        InvalidInput, r"must be \(T, G, C\)",
    ),
    # each row sum overflows float64: once a RuntimeWarning under -W error
    "validate_prediction_grid row sum past float64": (
        lambda _: validate_prediction_grid(np.full((1, 1, 2), 1e308)),
        InvalidInput, "must sum to 1",
    ),
    "validate_prediction_grid RowGrid row sum past float64": (
        lambda _: validate_prediction_grid(RowGrid(np.full((1, 2), 1e308), np.zeros((1, 1), int))),
        InvalidInput, "must sum to 1",
    ),
    # a grid with no classes has no class to pick, even when it has no cells
    "validate_prediction_grid no cells, no classes": (
        lambda _: validate_prediction_grid(np.zeros((0, 1, 0))), InvalidInput, "must sum to 1",
    ),
    "validate_prediction_grid no groups, no classes": (
        lambda _: validate_prediction_grid(np.zeros((2, 0, 0))), InvalidInput, "must sum to 1",
    ),
    "validate_prediction_grid RowGrid no classes": (
        lambda _: validate_prediction_grid(RowGrid(np.zeros((0, 0)), np.zeros((0, 1), int))),
        InvalidInput, "must sum to 1",
    ),
    "argmax_sample no classes": (
        lambda _: argmax_sample(np.zeros((0, 1, 0))), InvalidInput, "must sum to 1",
    ),
    "nll no classes": (
        lambda _: nll(np.zeros((0, 1, 0)), np.zeros((0, 1), int)), InvalidInput, "must sum to 1",
    ),
    "generate no frames, no classes": (
        lambda _: generate(lambda ctx: np.zeros((0, G, 0)), np.zeros(0), NO_SPEECH, NO_CONTROLS,
                           1, G),
        PredictorContractViolation, "layer 0: .*sum to 1",
    ),
    "generate predictor row sum past float64": (
        lambda _: generate(lambda ctx: np.full((T, G, 2), 1e308), np.zeros(0), SPEECH, CONTROLS,
                           1, G),
        PredictorContractViolation, "layer 0: each .* must sum to 1",
    ),
    "EchoPredictor 2-D target": (
        lambda _: EchoPredictor(np.zeros((T, G), dtype=int)),
        InvalidInput, r"target must be \(T, G, R\)",
    ),
    "EchoPredictor past its layers": (
        lambda _: EchoPredictor(np.zeros((T, G, 1), dtype=int))(context(1)),
        PredictorContractViolation, "layer 1 beyond the 1 target layers",
    ),
    "BigramPredictor.fit 2-D targets": (
        lambda _: BigramPredictor.fit(np.zeros((T, G), dtype=int), SPEECH, 2),
        InvalidInput, r"targets must be \(T, G, R\)",
    ),
    "BigramPredictor.fit speech length": (
        lambda _: BigramPredictor.fit(np.zeros((T + 1, G, 1), dtype=int), SPEECH, 2),
        InvalidInput, "speech covers 4 frames, targets cover 5",
    ),
    "BigramPredictor past its layers": (
        lambda _: BigramPredictor(2, 1)(context(1)),
        PredictorContractViolation, "layer 1 beyond the 1 trained layers",
    ),
    "quantize_sequence 1-D frames": (
        lambda _: quantize_sequence(np.zeros(48), CFG), InvalidInput, "must be a 2-D array",
    ),
    "utilization token shape": (
        lambda _: utilization(np.zeros((T, 12), dtype=int), CFG),
        ConfigMismatch, r"expected token shape \(T, 12, 4\)",
    ),
    "baseline_encode codebook grid": (
        lambda _: baseline_encode(
            np.zeros((T, 4)), BaselineConfig("gvq", 2, groups=2), [[Codebook(np.zeros((2, 2)))]]
        ),
        ConfigMismatch, "codebook grid does not match",
    ),
    "baseline_encode codebook grid of ints": (
        lambda _: baseline_encode(np.zeros((T, 4)), BaselineConfig("vq", 2), [[1]]),
        ConfigMismatch, "codebook grid does not match",
    ),
    "baseline_encode no codebook grid": (
        lambda _: baseline_encode(np.zeros((T, 4)), BaselineConfig("vq", 2), None),
        ConfigMismatch, "codebook grid does not match",
    ),
    "StreamHeader None config": (
        lambda _: StreamHeader(None, 1, 25.0), InvalidConfig, "config must be a GrfsqConfig",
    ),
    # a config or header of the wrong type: once a bare AttributeError
    **{
        f"{name} None {what}": (call, InvalidConfig, f"{what} must be a {cls}, got None")
        for name, call, what, cls in [
            ("grfsq_quantize", lambda _: grfsq_quantize(np.zeros(48), None),
             "config", "GrfsqConfig"),
            ("grfsq_dequantize", lambda _: grfsq_dequantize(np.zeros((1, 12, 4), int), None),
             "config", "GrfsqConfig"),
            ("quantize_sequence", lambda _: quantize_sequence(np.zeros((1, 48)), None),
             "config", "GrfsqConfig"),
            ("calibrate_projections", lambda _: calibrate_projections(np.zeros((8, 48)), None),
             "config", "GrfsqConfig"),
            ("bitrate", lambda _: bitrate(None, 25.0), "config", "GrfsqConfig"),
            ("utilization", lambda _: utilization(np.zeros((1, 12, 4), int), None),
             "config", "GrfsqConfig"),
            ("frame_bits", lambda _: frame_bits(None, 0), "config", "GrfsqConfig"),
            ("frame_block_bytes", lambda _: frame_block_bytes(None, 0), "config", "GrfsqConfig"),
            ("frame_pack", lambda _: frame_pack(np.zeros(48, int), None), "config", "GrfsqConfig"),
            ("frame_unpack", lambda _: frame_unpack(bytes(14), None), "config", "GrfsqConfig"),
            ("write_stream", lambda _: write_stream(None, np.zeros((1, 12, 4), int), io.BytesIO()),
             "header", "StreamHeader"),
            ("fit_codebooks", lambda _: fit_codebooks(np.zeros((T, 4)), None),
             "config", "BaselineConfig"),
            ("baseline_encode", lambda _: baseline_encode(np.zeros((T, 4)), None, []),
             "config", "BaselineConfig"),
            ("baseline_utilization", lambda _: baseline_utilization(np.zeros((T, 1, 1), int), None),
             "config", "BaselineConfig"),
            ("baseline_bitrate", lambda _: baseline_bitrate(None, 25.0),
             "config", "BaselineConfig"),
        ]
    },
    "kmeans_fit zero-width frames": (
        lambda _: kmeans_fit(np.zeros((3, 0)), 1, 2, 0), InvalidInput, "zero-width frames",
    ),
    "ablate zero-width frames": (ablate_vq_on_zero_width_frames(2), (2, ZERO_WIDTH), None),
    "ablate zero-width frames without Lloyd": (
        ablate_vq_on_zero_width_frames(0), (2, ZERO_WIDTH), None,
    ),
    # a bitrate past float64: once Infinity in ablate's JSON
    "bitrate past float64": (
        lambda _: bitrate(CFG, np.float64(1e308)), InvalidConfig, "overflows float64",
    ),
    "baseline_bitrate past float64": (
        lambda _: baseline_bitrate(BaselineConfig("vq", 4), 1e308),
        InvalidConfig, "overflows float64",
    ),
    "float_stream_bitrate past float64": (
        lambda _: float_stream_bitrate(48, 1e308), InvalidConfig, "overflows float64",
    ),
    "fsq_dequantize code count": (
        lambda _: fsq_dequantize([0, 0, 0], LevelSpec((5, 5))), InvalidCode, "expected 2 codes",
    ),
    "LevelSpec int levels": (lambda _: LevelSpec(5), InvalidConfig, "levels must be a sequence"),
    "LevelSpec None levels": (
        lambda _: LevelSpec(None), InvalidConfig, "levels must be a sequence",
    ),
    "GrfsqConfig tuple level_spec": (
        lambda _: GrfsqConfig(2, 2, (5, 5), 2), InvalidConfig, "level_spec must be a LevelSpec",
    ),
    "GrfsqConfig int projections": (
        lambda _: GrfsqConfig(2, 2, LevelSpec((5, 5)), 2, projections=5),
        InvalidConfig, "projections must be a sequence",
    ),
    "GrfsqConfig == non-config": (lambda _: CFG == "config", False, None),
    # compared by identity, as a generated __eq__ would compare its arrays
    "ReconstructionReport == its twin": (
        lambda _: quantize_sequence(np.ones((2, 48)), CFG)[2]
        == quantize_sequence(np.ones((2, 48)), CFG)[2],
        False, None,
    ),
    "ablate gvq groups not dividing the width": (ablate_gvq_5_groups_on_48_wide_frames, 3, None),
    "encode level counts past a byte": (
        encode_levels_past_a_byte, (3, "error: level counts must fit in a byte\n"), None,
    ),
    "load_controls blank lines counted": (
        controls_with_blank_lines, InvalidInput, r"controls\.jsonl:6: field 'h'",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refused(name, tmp_path):
    call, outcome, message = CASES[name]
    if isinstance(outcome, type):
        with pytest.raises(outcome, match=message):
            call(tmp_path)
    else:
        assert call(tmp_path) == outcome
