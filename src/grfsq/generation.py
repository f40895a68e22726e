"""Coarse-to-fine layered token generation.

One pass per residual layer, each pass predicting all frames at once
(non-autoregressive in time, autoregressive in granularity). The context
for layer r carries the global feature, the layer indicator, and a
frame-wise concatenation of speech tokens, control tracks and the tokens
produced at layer r-1 (an all-zero sentinel at layer 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PredictorContractViolation
from .fsq import _checked_int, _checked_ints, _checked_reals

PROB_FLOOR = 1e-12
DEFAULT_SPEECH_VOCAB = 4096


@dataclass(frozen=True, eq=False)
class SpeechTokenSeq:
    """Discrete speech tokens, one per frame."""

    tokens: np.ndarray
    vocab: int = DEFAULT_SPEECH_VOCAB

    def __post_init__(self):
        arr = np.asarray(self.tokens)
        if arr.ndim != 1:
            raise InvalidInput(f"tokens must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "vocab", _checked_int(self.vocab, "vocab", InvalidInput, low=1))
        arr = _checked_ints(arr, self.vocab, "tokens", InvalidInput)
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
    fg = _checked_reals(global_feature, "global feature", InvalidInput).reshape(-1)

    if prev_tokens is not None:
        prev = np.asarray(prev_tokens)
        if prev.ndim != 2 or prev.shape[0] != T:
            raise InvalidInput(f"prev_tokens must have shape ({T}, groups), got {prev.shape}")
        prev = _checked_ints(prev, np.iinfo(np.int64).max, "prev_tokens", InvalidInput)
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
        rows, which = np.asarray(self.rows), np.asarray(self.which)
        if rows.ndim != 2 or which.ndim != 2:
            raise InvalidInput(
                f"row grid needs (P, C) rows and (T, G) indices, got {rows.shape}, {which.shape}"
            )
        which = _checked_ints(which, rows.shape[0], "row indices", InvalidInput)
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


def validate_prediction_grid(probs) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 3:
        raise InvalidInput(f"prediction grid must be (T, G, C), got shape {arr.shape}")
    # A bad value anywhere wins over a bad row sum; a row with no classes
    # sums to 0, so it fails the row-sum check.
    if arr.size and not (arr.min() >= 0.0 and math.isfinite(arr.max())):  # NaN fails both
        raise InvalidInput("probabilities must be finite and non-negative")
    if np.any(np.abs(arr.sum(axis=2) - 1.0) > 1e-9):
        raise InvalidInput("each (frame, group) row must sum to 1 within 1e-9")
    return arr


def nll(predictions, targets) -> float:
    """Negative log-likelihood of targets (nats), probabilities floored at 1e-12."""
    probs = validate_prediction_grid(predictions)
    tgt = np.asarray(targets)
    if tgt.shape != probs.shape[:2]:
        raise InvalidInput(
            f"targets shape {tgt.shape} does not match grid {probs.shape[:2]}"
        )
    tgt = _checked_ints(tgt, probs.shape[2], "targets", InvalidInput)
    return _picked_nll(*_rows_of(probs), tgt)


def _picked_nll(rows: np.ndarray, which: np.ndarray, tgt: np.ndarray) -> float:
    """`nll` of validated (P, C) rows, each cell's row `which` (T, G) and
    in-range (T, G) integer targets. The picked probabilities are gathered
    into a (T, G) array first, so the sum runs in the dense grid's order."""
    picked = rows[which, tgt]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).sum())


def argmax_sample(predictions) -> np.ndarray:
    """Most probable class per (frame, group); ties resolve to the lowest class."""
    probs = validate_prediction_grid(predictions)
    return probs.argmax(axis=2).astype(np.int64)


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
    only the previous layer's tokens. Its grid is held as its distinct
    probability rows (a RowGrid as returned, a dense array as one row per
    cell); the rows are validated once, and each row is argmaxed and scored
    once. Each cell takes its row's token into that layer's slice of the
    output tensor (T, groups, layers). No (T, G, C) array is built for a
    predictor that returns a RowGrid.
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
            grid = np.asarray(grid)
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
        rows, which = _rows_of(grid)
        try:
            rows = validate_prediction_grid(rows[:, None, :])[:, 0]
        except InvalidInput as exc:
            raise PredictorContractViolation(f"layer {layer}: {exc}") from None
        tokens = rows.argmax(axis=1)[which].astype(np.int64)
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
        self.target = _checked_ints(arr, high, "targets", InvalidInput)
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
    target given the frame's speech token. Each channel is a table of
    smoothed, normalized rows, one per symbol seen in training (sorted keys)
    plus a last count-free row, exactly uniform, that unseen symbols fall
    back to. Prediction returns a RowGrid of the distinct (previous, speech)
    rows; nothing loops over frames or groups, and the grid is bit-identical
    to normalizing every cell's row on its own.
    """

    def __init__(self, num_classes: int, num_layers: int):
        self.num_classes = _checked_int(num_classes, "num_classes", InvalidInput, low=1)
        self.num_layers = _checked_int(num_layers, "num_layers", InvalidInput, low=1)
        no_symbols = np.zeros(0, dtype=np.int64)
        empty = _channel_table(no_symbols, no_symbols, self.num_classes)
        self._prev_tables = [empty] * self.num_layers
        self._speech_tables = [empty] * self.num_layers

    @classmethod
    def fit(cls, targets, speech: SpeechTokenSeq, num_classes: int) -> "BigramPredictor":
        arr = np.asarray(targets)
        if arr.ndim != 3:
            raise InvalidInput(f"targets must be (T, G, R), got shape {arr.shape}")
        T, G, R = arr.shape
        if len(speech) != T:
            raise InvalidInput(f"speech covers {len(speech)} frames, targets cover {T}")
        model = cls(num_classes, R)
        num_classes = model.num_classes
        arr = _checked_ints(arr, num_classes, "targets", InvalidInput)
        speech_per_cell = np.broadcast_to(speech.tokens[:, None], (T, G))
        for r in range(R):
            prev = np.zeros((T, G), dtype=np.int64) if r == 0 else arr[:, :, r - 1]
            model._prev_tables[r] = _channel_table(prev, arr[:, :, r], num_classes)
            model._speech_tables[r] = _channel_table(speech_per_cell, arr[:, :, r], num_classes)
        return model

    def __call__(self, context: GenerationContext) -> RowGrid:
        layer = context.layer_indicator
        if layer >= self.num_layers:
            raise PredictorContractViolation(
                f"layer {layer} beyond the {self.num_layers} trained layers"
            )
        speech_tokens = context.framewise[:, 0].astype(np.int64)
        prev_keys, prev_table = self._prev_tables[layer]
        speech_keys, speech_table = self._speech_tables[layer]
        prev_rows = _table_rows(prev_keys, context.prev_layer_tokens)
        speech_rows = _table_rows(speech_keys, speech_tokens)[:, None]
        # A cell's row depends only on its (prev row, speech row) pair, so
        # each distinct pair's row is built and normalized once.
        n_speech = speech_table.shape[0]
        pairs, which = np.unique(prev_rows * n_speech + speech_rows, return_inverse=True)
        joint = prev_table[pairs // n_speech] * speech_table[pairs % n_speech]
        joint /= joint.sum(axis=1, keepdims=True)
        return RowGrid(joint, which.reshape(prev_rows.shape))


def _channel_table(symbols, targets, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted symbols seen and their (K + 1, C) add-one-smoothed, normalized
    target rows; the last row has no counts, so it is exactly 1/C."""
    keys, rows = np.unique(np.ravel(symbols), return_inverse=True)
    counts = np.bincount(
        rows * num_classes + np.ravel(targets),
        minlength=(keys.size + 1) * num_classes,
    )
    smoothed = counts.reshape(keys.size + 1, num_classes) + 1.0
    return keys, smoothed / smoothed.sum(axis=1, keepdims=True)


def _table_rows(keys: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Row of each symbol in a channel table; unseen symbols get the last row."""
    if keys.size == 0:
        return np.zeros(np.shape(symbols), dtype=np.intp)
    pos = np.searchsorted(keys, symbols)
    seen = keys[np.minimum(pos, keys.size - 1)] == symbols
    return np.where(seen, pos, keys.size)


def load_speech_tokens(path, vocab: int = DEFAULT_SPEECH_VOCAB) -> SpeechTokenSeq:
    """Read newline-delimited integer tokens, validated against the vocab."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise InvalidInput(f"{path}:{lineno}: not an integer token: {text!r}") from None
            if value < 0 or value >= vocab:
                raise InvalidInput(
                    f"{path}:{lineno}: token {value} outside vocab [0, {vocab})"
                )
            tokens.append(value)
    return SpeechTokenSeq(tokens=np.asarray(tokens, dtype=np.int64), vocab=vocab)


_JSON_NUMBERS = frozenset((int, float))


def _finite_floats(values) -> list[float] | None:
    """JSON numbers as floats, or None unless every value is a finite int or
    float. A bool is no number here, though Python makes it an int; an
    integer too large for a float (JSON allows one) counts as not finite."""
    if not set(map(type, values)) <= _JSON_NUMBERS:
        return None
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


def load_controls(path) -> ControlTrack:
    """Read JSON-lines control records with fields h (3), g (2), b (2)."""
    h, g, b = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except ValueError as exc:  # also an integer past Python's digit limit
                raise InvalidInput(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise InvalidInput(f"{path}:{lineno}: expected a JSON object")
            for key, dest, width in (("h", h, 3), ("g", g, 2), ("b", b, 2)):
                value = record.get(key)
                floats = (
                    _finite_floats(value)
                    if isinstance(value, list) and len(value) == width
                    else None
                )
                if floats is None:
                    raise InvalidInput(
                        f"{path}:{lineno}: field {key!r} must be {width} finite numbers"
                    )
                dest.append(floats)
    return ControlTrack(
        head_pose=np.asarray(h, dtype=np.float64).reshape(len(h), 3),
        gaze=np.asarray(g, dtype=np.float64).reshape(len(g), 2),
        blink=np.asarray(b, dtype=np.float64).reshape(len(b), 2),
    )
