"""Coarse-to-fine layered token generation.

One pass per residual layer, each pass predicting all frames at once
(non-autoregressive in time, autoregressive in granularity). The context
for layer r carries the global feature, the layer indicator, and a
frame-wise concatenation of speech tokens, control tracks and the tokens
produced at layer r-1 (an all-zero sentinel at layer 0).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._text import DEFAULT_SPEECH_VOCAB, MAX_SPEECH_VOCAB, _finite_floats, _json_line, _lines
from .errors import InvalidInput, PredictorContractViolation
from .fsq import _checked_int, _checked_ints, _checked_reals, _real_array

PROB_FLOOR = 1e-12


def _checked_vocab(vocab) -> int:
    vocab = _checked_int(vocab, "vocab", InvalidInput, low=1)
    if vocab > MAX_SPEECH_VOCAB:
        raise InvalidInput(f"vocab must be at most 2**53, got {vocab}")
    return vocab


@dataclass(frozen=True, eq=False)
class SpeechTokenSeq:
    """Discrete speech tokens, one per frame."""

    tokens: np.ndarray
    vocab: int = DEFAULT_SPEECH_VOCAB

    def __post_init__(self):
        arr = np.asarray(self.tokens)
        if arr.ndim != 1:
            raise InvalidInput(f"tokens must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "vocab", _checked_vocab(self.vocab))
        arr = _checked_ints(arr, self.vocab, "tokens", InvalidInput).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)

    def __len__(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True, eq=False)
class ControlTrack:
    """Frame-level head pose (3), gaze (2) and eye blink (2) signals."""

    head_pose: np.ndarray
    gaze: np.ndarray
    blink: np.ndarray

    def __post_init__(self):
        widths = {"head_pose": 3, "gaze": 2, "blink": 2}
        for name, width in widths.items():
            arr = _checked_reals(getattr(self, name), name, InvalidInput)
            if arr.ndim != 2 or arr.shape[1] != width:
                raise InvalidInput(f"{name} must have shape (T, {width}), got {arr.shape}")
            arr = arr.copy()  # frozen below; the caller's array stays writeable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lengths = {getattr(self, name).shape[0] for name in widths}
        if len(lengths) != 1:
            raise InvalidInput(f"control tracks disagree on length: {sorted(lengths)}")

    @property
    def num_frames(self) -> int:
        return self.head_pose.shape[0]


@dataclass(frozen=True, eq=False)
class GenerationContext:
    """Everything a predictor sees for one layer pass."""

    global_feature: np.ndarray
    layer_indicator: int
    framewise: np.ndarray  # (T, 1 + 3 + 2 + 2 + num_groups)
    prev_layer_tokens: np.ndarray  # (T, num_groups)

    @property
    def num_frames(self) -> int:
        return self.framewise.shape[0]


@dataclass(frozen=True, eq=False)
class LayerPass:
    layer: int
    positions: np.ndarray


@dataclass(frozen=True, eq=False)
class Schedule:
    num_frames: int
    num_layers: int
    passes: tuple[LayerPass, ...]


def build_schedule(num_frames: int, num_layers: int) -> Schedule:
    """One pass per layer; each pass covers every frame position at once."""
    num_frames = _checked_int(num_frames, "num_frames", InvalidInput)
    num_layers = _checked_int(num_layers, "num_layers", InvalidInput, low=1)
    passes = tuple(
        LayerPass(layer=r, positions=np.arange(num_frames)) for r in range(num_layers)
    )
    return Schedule(num_frames=num_frames, num_layers=num_layers, passes=passes)


def assemble_context(
    global_feature,
    layer: int,
    speech: SpeechTokenSeq,
    controls: ControlTrack,
    prev_tokens=None,
    num_groups: int | None = None,
) -> GenerationContext:
    """Build the layer context; layer 0 substitutes an all-zero token sentinel."""
    T = len(speech)
    if controls.num_frames != T:
        raise InvalidInput(
            f"controls cover {controls.num_frames} frames, speech covers {T}"
        )
    layer = _checked_int(layer, "layer", InvalidInput)
    if num_groups is not None:
        num_groups = _checked_int(num_groups, "num_groups", InvalidInput, low=1)
    fg = _checked_reals(global_feature, "global feature", InvalidInput).reshape(-1)

    if prev_tokens is not None:
        prev = np.asarray(prev_tokens)
        if prev.ndim != 2 or prev.shape[0] != T:
            raise InvalidInput(f"prev_tokens must have shape ({T}, groups), got {prev.shape}")
        prev = _checked_ints(prev, np.iinfo(np.int64).max, "prev_tokens", InvalidInput).copy()
        if num_groups is not None and prev.shape[1] != num_groups:
            raise InvalidInput(
                f"prev_tokens have {prev.shape[1]} groups, expected {num_groups}"
            )
        num_groups = prev.shape[1]
    if num_groups is None:
        raise InvalidInput("num_groups is required when prev_tokens is not given")

    if layer == 0:
        prev = np.zeros((T, num_groups), dtype=np.int64)
    elif prev_tokens is None:
        raise InvalidInput("layers above 0 need the previous layer's tokens")

    framewise = np.concatenate(
        [
            speech.tokens[:, None].astype(np.float64),
            controls.head_pose,
            controls.gaze,
            controls.blink,
            prev.astype(np.float64),
        ],
        axis=1,
    )
    return GenerationContext(
        global_feature=fg,
        layer_indicator=layer,
        framewise=framewise,
        prev_layer_tokens=prev,
    )


@dataclass(frozen=True, eq=False)
class RowGrid:
    """A (T, G, C) prediction grid held as its distinct rows: cell (t, g) is
    ``rows[which[t, g]]``. A predictor whose cells share few rows returns
    one, so generation validates, argmaxes and scores each row once. numpy
    sees the dense grid through ``__array__``."""

    rows: np.ndarray  # (P, C)
    which: np.ndarray  # (T, G) row of each cell

    ndim = 3

    def __post_init__(self):
        rows = _real_array(self.rows, "row grid rows", InvalidInput)
        which = np.asarray(self.which)
        if rows.ndim != 2 or which.ndim != 2:
            raise InvalidInput(
                f"row grid needs (P, C) rows and (T, G) indices, got {rows.shape}, {which.shape}"
            )
        which = _checked_ints(which, rows.shape[0], "row indices", InvalidInput).copy()
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "which", which)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.which.shape + self.rows.shape[1:]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a row grid has no dense array to view without a copy")
        grid = self.rows[self.which]
        return grid if dtype is None else grid.astype(dtype, copy=False)


def _rows_of(grid) -> tuple[np.ndarray, np.ndarray]:
    """(rows (P, C), which (T, G)) of a RowGrid, or of a dense (T, G, C) array
    as one row per cell."""
    if isinstance(grid, RowGrid):
        return grid.rows, grid.which
    T, G, C = grid.shape
    return grid.reshape(T * G, C), np.arange(T * G).reshape(T, G)


def validate_prediction_grid(probs) -> RowGrid | np.ndarray:
    """The grid once every row is a probability row: a RowGrid as it is, its
    rows checked whether a cell uses them or not and no dense grid built,
    or a dense grid as a float64 array."""
    if isinstance(probs, RowGrid):
        values = probs.rows
    else:
        probs = values = _real_array(probs, "prediction grid", InvalidInput)
        if probs.ndim != 3:
            raise InvalidInput(f"prediction grid must be (T, G, C), got shape {probs.shape}")
    # A bad value anywhere wins over a bad row sum; a row with no classes
    # sums to 0, so it fails the row-sum check.
    if values.size and not (values.min() >= 0.0 and math.isfinite(values.max())):  # NaN fails both
        raise InvalidInput("probabilities must be finite and non-negative")
    if np.any(np.abs(values.sum(axis=-1) - 1.0) > 1e-9):
        raise InvalidInput("each (frame, group) row must sum to 1 within 1e-9")
    return probs


def nll(predictions, targets) -> float:
    """Negative log-likelihood of targets (nats), probabilities floored at 1e-12."""
    rows, which = _rows_of(validate_prediction_grid(predictions))
    tgt = np.asarray(targets)
    if tgt.shape != which.shape:
        raise InvalidInput(f"targets shape {tgt.shape} does not match grid {which.shape}")
    return _picked_nll(rows, which, _checked_ints(tgt, rows.shape[1], "targets", InvalidInput))


def _picked_nll(rows: np.ndarray, which: np.ndarray, tgt: np.ndarray) -> float:
    """`nll` of validated (P, C) rows, each cell's row `which` (T, G) and
    in-range (T, G) integer targets. The picked probabilities are gathered
    into a (T, G) array first, so the sum runs in the dense grid's order,
    and negated before it, so a grid of no cells scores +0.0, not -0.0."""
    picked = rows[which, tgt]
    return float((-np.log(np.maximum(picked, PROB_FLOOR))).sum())


def argmax_sample(predictions) -> np.ndarray:
    """Most probable class per (frame, group); ties resolve to the lowest class."""
    return _argmax(*_rows_of(validate_prediction_grid(predictions)))


def _argmax(rows: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Each cell's most probable class, from its row's argmax."""
    return rows.argmax(axis=1)[which].astype(np.int64)


def generate(
    predictor,
    global_feature,
    speech: SpeechTokenSeq,
    controls: ControlTrack,
    num_layers: int,
    num_groups: int,
    with_nll: bool = False,
):
    """Run the layered generation loop.

    The predictor is invoked exactly once per layer with a context holding
    only the previous layer's tokens. Its grid is validated once, and each
    of its rows (a dense grid has one per cell) is argmaxed and scored once,
    so no (T, G, C) array is built for a predictor that returns a RowGrid.
    Each cell's token goes into that layer's slice of the output (T, groups,
    layers).
    """
    num_layers = _checked_int(num_layers, "num_layers", InvalidInput, low=1)
    num_groups = _checked_int(num_groups, "num_groups", InvalidInput, low=1)
    T = len(speech)
    out = np.zeros((T, num_groups, num_layers), dtype=np.int64)
    nll_per_layer = np.zeros(num_layers)
    num_classes = None
    prev = None
    for layer_pass in build_schedule(T, num_layers).passes:
        layer = layer_pass.layer
        context = assemble_context(
            global_feature, layer, speech, controls, prev_tokens=prev, num_groups=num_groups
        )
        grid = predictor(context)
        if not isinstance(grid, RowGrid):
            grid = _real_array(grid, f"layer {layer}: prediction grid", PredictorContractViolation)
        if grid.ndim != 3 or grid.shape[0] != T or grid.shape[1] != num_groups:
            raise PredictorContractViolation(
                f"layer {layer}: grid shape {grid.shape}, expected ({T}, {num_groups}, C)"
            )
        if num_classes is None:
            num_classes = grid.shape[2]
        elif grid.shape[2] != num_classes:
            raise PredictorContractViolation(
                f"layer {layer}: class count changed from {num_classes} to {grid.shape[2]}"
            )
        try:
            rows, which = _rows_of(validate_prediction_grid(grid))
        except InvalidInput as exc:
            raise PredictorContractViolation(f"layer {layer}: {exc}") from None
        tokens = _argmax(rows, which)
        if with_nll:
            nll_per_layer[layer] = _picked_nll(rows, which, tokens)
        del grid, rows  # free this layer's rows before the next predictor call
        out[:, :, layer] = tokens
        prev = tokens
    if with_nll:
        return out, nll_per_layer
    return out


class UniformPredictor:
    """Assigns every class equal probability."""

    def __init__(self, num_classes: int):
        self.num_classes = _checked_int(num_classes, "num_classes", InvalidInput, low=1)

    def __call__(self, context: GenerationContext) -> RowGrid:
        row = np.full((1, self.num_classes), 1.0 / self.num_classes)
        return RowGrid(row, np.zeros(context.prev_layer_tokens.shape, dtype=np.intp))


class EchoPredictor:
    """Puts probability one on a fixed target tensor's slice for each layer."""

    def __init__(self, target, num_classes: int | None = None):
        arr = np.asarray(target)
        if arr.ndim != 3:
            raise InvalidInput(f"target must be (T, G, R), got shape {arr.shape}")
        high = np.iinfo(np.int64).max
        if num_classes is not None:
            high = _checked_int(num_classes, "num_classes", InvalidInput, low=1)
        self.target = _checked_ints(arr, high, "targets", InvalidInput).copy()
        self.num_classes = int(self.target.max(initial=0)) + 1 if num_classes is None else high

    def __call__(self, context: GenerationContext) -> np.ndarray:
        layer = context.layer_indicator
        T, G, R = self.target.shape
        if layer >= R:
            raise PredictorContractViolation(f"layer {layer} beyond the {R} target layers")
        grid = np.zeros((T, G, self.num_classes))
        t_idx, g_idx = np.indices((T, G))
        grid[t_idx, g_idx, self.target[:, :, layer]] = 1.0
        return grid


class BigramPredictor:
    """Add-one-smoothed counts over previous-layer tokens and speech tokens.

    Per layer, two count channels are combined multiplicatively and
    renormalized: target given the same-position previous-layer token, and
    target given the frame's speech token. `fit` keeps the training cells
    and counts nothing; prediction counts only the symbols its context
    holds and builds each distinct (previous, speech) pair's row once. An
    unseen symbol has no cells, so its row is exactly uniform. The RowGrid
    it returns is bit-identical to normalizing every cell's row on its own.
    """

    def __init__(self, num_classes: int, num_layers: int):
        self.num_classes = _checked_int(num_classes, "num_classes", InvalidInput, low=1)
        self.num_layers = _checked_int(num_layers, "num_layers", InvalidInput, low=1)
        self._targets = np.zeros((0, 1, self.num_layers), dtype=np.int64)
        self._speech = np.zeros(0, dtype=np.int64)

    @classmethod
    def fit(cls, targets, speech: SpeechTokenSeq, num_classes: int) -> "BigramPredictor":
        arr = np.asarray(targets)
        if arr.ndim != 3:
            raise InvalidInput(f"targets must be (T, G, R), got shape {arr.shape}")
        T, G, R = arr.shape
        if len(speech) != T:
            raise InvalidInput(f"speech covers {len(speech)} frames, targets cover {T}")
        model = cls(num_classes, R)
        model._targets = _checked_ints(arr, model.num_classes, "targets", InvalidInput).copy()
        model._speech = speech.tokens
        return model

    def __call__(self, context: GenerationContext) -> RowGrid:
        layer = context.layer_indicator
        if layer >= self.num_layers:
            raise PredictorContractViolation(
                f"layer {layer} beyond the {self.num_layers} trained layers"
            )
        targets = self._targets[:, :, layer]
        trained_prev = self._targets[:, :, layer - 1] if layer else np.zeros_like(targets)
        trained_speech = np.broadcast_to(self._speech[:, None], targets.shape)
        prev = context.prev_layer_tokens
        speech = context.framewise[:, 0].astype(np.int64)
        prev_keys, prev_at = np.unique(prev, return_inverse=True)
        speech_keys, speech_at = np.unique(speech, return_inverse=True)
        # A cell's row depends only on its (previous, speech) symbol pair, so
        # each distinct pair's row is built and normalized once. Pairs are
        # keyed by the symbols' ranks, as raw tokens are unbounded ints.
        n_speech = speech_keys.size
        keyed = prev_at.reshape(prev.shape) * n_speech + speech_at[:, None]
        pairs, which = np.unique(keyed, return_inverse=True)
        C = self.num_classes
        joint = _smoothed_rows(prev_keys, trained_prev, targets, C)[pairs // n_speech]
        joint *= _smoothed_rows(speech_keys, trained_speech, targets, C)[pairs % n_speech]
        joint /= joint.sum(axis=1, keepdims=True)
        return RowGrid(joint, which.reshape(prev.shape))


def _smoothed_rows(keys: np.ndarray, symbols, targets, num_classes: int) -> np.ndarray:
    """One add-one-smoothed, normalized row per sorted symbol in `keys`,
    counted over the training cells (symbols, targets) of those symbols. A
    symbol with no cells gets the uniform row."""
    used = np.isin(symbols, keys)
    cells = np.searchsorted(keys, symbols[used]) * num_classes + targets[used]
    rows = np.bincount(cells, minlength=keys.size * num_classes) + 1.0
    rows = rows.reshape(keys.size, num_classes)
    return rows / rows.sum(axis=1, keepdims=True)


def load_speech_tokens(path, vocab: int = DEFAULT_SPEECH_VOCAB) -> SpeechTokenSeq:
    """Read newline-delimited integer tokens, validated against the vocab."""
    vocab = _checked_vocab(vocab)
    tokens = []
    for lineno, text in _lines(path):
        try:
            value = int(text)
        except ValueError:
            raise InvalidInput(f"{path}:{lineno}: not an integer token: {text!r}") from None
        if value < 0 or value >= vocab:
            raise InvalidInput(f"{path}:{lineno}: token {value} outside vocab [0, {vocab})")
        tokens.append(value)
    return SpeechTokenSeq(tokens=np.asarray(tokens, dtype=np.int64), vocab=vocab)


def load_controls(path) -> ControlTrack:
    """Read JSON-lines control records with fields h (3), g (2), b (2)."""
    values = array("d")  # 8 bytes per value, not a list of float objects
    for lineno, text in _lines(path):
        record = _json_line(path, lineno, text)
        if not isinstance(record, dict):
            raise InvalidInput(f"{path}:{lineno}: expected a JSON object")
        for key, width in (("h", 3), ("g", 2), ("b", 2)):
            floats = _finite_floats(record.get(key))
            if floats is None or len(floats) != width:
                raise InvalidInput(
                    f"{path}:{lineno}: field {key!r} must be {width} finite numbers"
                )
            values.extend(floats)
    track = np.frombuffer(values, dtype=np.float64).reshape(-1, 7)
    return ControlTrack(head_pose=track[:, :3], gaze=track[:, 3:5], blink=track[:, 5:])
