"""Refusal paths no other test reaches: each call below ends in its typed
error, its exit code or its documented result."""

import json

import numpy as np
import pytest

from grfsq.baselines import BaselineConfig, Codebook, baseline_encode
from grfsq.cli import main
from grfsq.errors import (
    ConfigMismatch,
    InvalidCode,
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
    assemble_context,
    load_controls,
    validate_prediction_grid,
)
from grfsq.quantizer import GrfsqConfig, quantize_sequence, utilization

T, G = 4, 3
CFG = GrfsqConfig(12, 4, LevelSpec((5, 5, 5, 5)), 4)
SPEECH = SpeechTokenSeq(tokens=np.arange(T), vocab=T)
CONTROLS = ControlTrack(np.zeros((T, 3)), np.zeros((T, 2)), np.zeros((T, 2)))
ROW_GRID = RowGrid(np.full((1, 2), 0.5), np.zeros((T, G), dtype=int))


def context(layer):
    prev = np.zeros((T, G), dtype=int) if layer else None
    return assemble_context(np.zeros(0), layer, SPEECH, CONTROLS, prev_tokens=prev, num_groups=G)


def ablate_gvq_5_groups_on_48_wide_frames(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps([0.5] * 48) + "\n" for _ in range(8)))
    return main(["ablate", str(path), "--schemes", "gvq", "--gvq-groups", "5", "--gvq-k", "2"])


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
    "assemble_context no groups": (
        lambda _: assemble_context(np.zeros(0), 0, SPEECH, CONTROLS),
        InvalidInput, "num_groups is required",
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
    "fsq_dequantize code count": (
        lambda _: fsq_dequantize([0, 0, 0], LevelSpec((5, 5))), InvalidCode, "expected 2 codes",
    ),
    "GrfsqConfig == non-config": (lambda _: CFG == "config", False, None),
    "ablate gvq groups not dividing the width": (ablate_gvq_5_groups_on_48_wide_frames, 3, None),
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
