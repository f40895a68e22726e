"""The rules for real-valued arrays and integer scalars.

Real arrays (frames, vectors, projections, codebooks, controls, the global
feature) go through ``fsq._checked_reals``: an integer or float dtype,
every value finite. Integer scalars (counts, levels, k, seeds, a flat
index) go through ``fsq._checked_int``: an int, a numpy integer or a finite
whole float, within the site's bounds, stored as a Python int. Index arrays
follow the third rule, tested in ``test_index_arrays.py``."""

import warnings

import numpy as np
import pytest

from grfsq.baselines import (
    BaselineConfig,
    Codebook,
    baseline_bitrate,
    baseline_encode,
    fit_codebooks,
    kmeans_fit,
)
from grfsq.bitstream import StreamHeader
from grfsq.errors import InvalidConfig, InvalidIndex, InvalidInput
from grfsq.fsq import (
    LevelSpec,
    _checked_int,
    _checked_reals,
    bound,
    fsq_quantize,
    index_to_codes,
    ste_gradient,
)
from grfsq.generation import (
    BigramPredictor,
    ControlTrack,
    EchoPredictor,
    SpeechTokenSeq,
    UniformPredictor,
    assemble_context,
    build_schedule,
    generate,
)
from grfsq.quantizer import (
    GrfsqConfig,
    bitrate,
    calibrate_projections,
    float_stream_bitrate,
    grfsq_quantize,
    quantize_sequence,
)

G, T = 2, 6
SPEC = LevelSpec((3, 3))
CFG = GrfsqConfig(G, 2, SPEC, 2)
FRAMES = np.random.default_rng(0).uniform(-1.0, 1.0, (T, 4))
VECTOR = np.array([0.3, -0.7])
PROJECTIONS = np.stack([np.eye(2, 3), np.eye(2, 3, 1)])
BASELINE = BaselineConfig("gvq", 2, groups=G)
BOOKS = fit_codebooks(FRAMES, BASELINE)


def speech(n: int = T) -> SpeechTokenSeq:
    return SpeechTokenSeq(np.arange(n) % 4, vocab=4)


def controls(n: int = T, head_pose=None) -> ControlTrack:
    head_pose = np.zeros((n, 3)) if head_pose is None else head_pose
    return ControlTrack(head_pose, np.zeros((n, 2)), np.zeros((n, 2)))


def run_generate(predictor, num_layers=1, num_groups=G) -> np.ndarray:
    return generate(predictor, np.zeros(0), speech(), controls(), num_layers, num_groups)


# name: (call on the real array, a valid array, error class)
REAL_SITES = {
    "fsq_quantize": (lambda a: fsq_quantize(a, SPEC)[1], VECTOR, InvalidInput),
    "bound": (lambda a: bound(a, SPEC), VECTOR, InvalidInput),
    "ste_gradient.z": (lambda a: ste_gradient(a, SPEC, np.ones(2)), VECTOR, InvalidInput),
    "ste_gradient.upstream": (
        lambda a: ste_gradient(np.zeros(2), SPEC, a), VECTOR, InvalidInput,
    ),
    "grfsq_quantize": (lambda a: grfsq_quantize(a, CFG)[0], FRAMES[0], InvalidInput),
    "quantize_sequence": (lambda a: quantize_sequence(a, CFG)[1], FRAMES, InvalidInput),
    "calibrate_projections": (
        lambda a: calibrate_projections(a, CFG).projections, FRAMES, InvalidInput,
    ),
    "kmeans_fit": (lambda a: kmeans_fit(a, 2, 2, 0).entries, FRAMES, InvalidInput),
    "fit_codebooks": (lambda a: fit_codebooks(a, BASELINE)[1][0].entries, FRAMES, InvalidInput),
    "baseline_encode": (lambda a: baseline_encode(a, BASELINE, BOOKS)[1], FRAMES, InvalidInput),
    "GrfsqConfig.projections": (
        lambda a: GrfsqConfig(G, 1, SPEC, 3, a).projections, PROJECTIONS, InvalidConfig,
    ),
    "Codebook": (lambda a: Codebook(a).entries, FRAMES, InvalidConfig),
    "ControlTrack": (lambda a: controls(head_pose=a).head_pose, FRAMES[:, :3], InvalidInput),
    "assemble_context.global_feature": (
        lambda a: assemble_context(a, 0, speech(), controls(), num_groups=G).global_feature,
        VECTOR, InvalidInput,
    ),
}


def ragged(good: np.ndarray) -> list:
    """`good` as nested lists whose last number became a pair of numbers."""
    rows = good.tolist()
    last = rows
    while isinstance(last[-1], list):
        last = last[-1]
    last[-1] = [last[-1], last[-1]]
    return rows


def with_nan(good: np.ndarray) -> np.ndarray:
    bad = good.copy()
    bad.flat[-1] = np.nan
    return bad


# kind: (damage to a valid array, what the message says)
BAD_REALS = {
    "bool": (lambda a: a.astype(bool), "real numbers"),
    "complex": (lambda a: a.astype(complex), "real numbers"),
    "str": (lambda a: a.astype(str), "real numbers"),
    "object": (lambda a: a.astype(object), "real numbers"),
    "ragged": (ragged, "ragged"),
    "nan": (with_nan, "non-finite"),
}


class TestCheckedReals:
    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float32, np.float64])
    def test_integer_and_float_dtypes_pass_as_float64(self, dtype):
        out = _checked_reals(np.array([[0, 3], [1, 2]], dtype=dtype), "x", InvalidInput)
        assert out.dtype == np.float64 and out.tolist() == [[0.0, 3.0], [1.0, 2.0]]

    def test_a_float64_array_is_returned_itself(self):
        arr = np.zeros((3, 2))
        assert _checked_reals(arr, "x", InvalidInput) is arr

    def test_python_numbers_pass(self):
        assert _checked_reals([[1, 2.5]], "x", InvalidInput).tolist() == [[1.0, 2.5]]
        assert _checked_reals(25, "x", InvalidInput).ndim == 0

    @pytest.mark.parametrize("kind", sorted(BAD_REALS))
    def test_bad_kinds_fail_without_a_warning(self, kind):
        damage, message = BAD_REALS[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast of a complex array would warn
            with pytest.raises(InvalidConfig, match=message):
                _checked_reals(damage(np.ones((2, 2))), "x", InvalidConfig)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_infinities_fail(self, bad):
        with pytest.raises(InvalidInput, match="non-finite"):
            _checked_reals([0.0, bad], "x", InvalidInput)

    def test_an_integer_too_large_for_int64_fails(self):
        with pytest.raises(InvalidInput, match="real numbers"):  # numpy makes it an object
            _checked_reals([1, 2**64], "x", InvalidInput)


@pytest.mark.parametrize("name", sorted(REAL_SITES))
class TestEveryRealSite:
    def test_integer_arrays_act_as_floats(self, name):
        call, good, _ = REAL_SITES[name]
        whole = np.round(good)
        assert np.array_equal(call(whole.astype(np.int64)), call(whole))

    @pytest.mark.parametrize("kind", sorted(BAD_REALS))
    def test_bad_kind_fails(self, name, kind):
        call, good, error = REAL_SITES[name]
        damage, message = BAD_REALS[kind]
        with pytest.raises(error, match=message):
            call(damage(good.copy()))


BASELINE_ARGS = dict(
    scheme="grvq", codebook_size=2, groups=2, residuals=2, kmeans_iters=2, seed=2
)


def baseline_field(field):
    return lambda v: getattr(BaselineConfig(**{**BASELINE_ARGS, field: v}), field)


# name: (call on the integer, error class, lowest valid value)
INT_SITES = {
    "LevelSpec": (lambda v: LevelSpec((v, 3)).levels[0], InvalidConfig, 2),
    "GrfsqConfig.num_groups": (lambda v: GrfsqConfig(v, 1, SPEC, 2).num_groups, InvalidConfig, 1),
    "GrfsqConfig.num_residuals": (
        lambda v: GrfsqConfig(1, v, SPEC, 2).num_residuals, InvalidConfig, 1,
    ),
    "GrfsqConfig.group_dim": (
        lambda v: GrfsqConfig(1, 1, SPEC, v).group_dim, InvalidConfig, 1,
    ),
    "BaselineConfig.codebook_size": (baseline_field("codebook_size"), InvalidConfig, 1),
    "BaselineConfig.groups": (baseline_field("groups"), InvalidConfig, 1),
    "BaselineConfig.residuals": (baseline_field("residuals"), InvalidConfig, 1),
    "BaselineConfig.kmeans_iters": (baseline_field("kmeans_iters"), InvalidConfig, 0),
    "BaselineConfig.seed": (baseline_field("seed"), InvalidConfig, 0),
    "StreamHeader.frame_count": (
        lambda v: StreamHeader(CFG, v, 25.0).frame_count, InvalidConfig, 0,
    ),
    "StreamHeader.packing_mode": (
        lambda v: StreamHeader(CFG, 1, 25.0, packing_mode=v).packing_mode, InvalidConfig, 0,
    ),
    "kmeans_fit.k": (lambda v: kmeans_fit(FRAMES, v, 2, 0).k, InvalidConfig, 1),
    "kmeans_fit.iters": (lambda v: kmeans_fit(FRAMES, 2, v, 0).entries, InvalidConfig, 0),
    "kmeans_fit.seed": (lambda v: kmeans_fit(FRAMES, 2, 2, v).entries, InvalidConfig, 0),
    "build_schedule.num_frames": (lambda v: build_schedule(v, 1).num_frames, InvalidInput, 0),
    "build_schedule.num_layers": (lambda v: build_schedule(1, v).num_layers, InvalidInput, 1),
    "generate.num_layers": (
        lambda v: run_generate(UniformPredictor(3), num_layers=v), InvalidInput, 1,
    ),
    "generate.num_groups": (
        lambda v: run_generate(UniformPredictor(3), num_groups=v), InvalidInput, 1,
    ),
    "assemble_context.layer": (
        lambda v: assemble_context(
            np.zeros(0), v, speech(), controls(), prev_tokens=np.zeros((T, G), dtype=int)
        ).layer_indicator,
        InvalidInput, 0,
    ),
    "UniformPredictor": (lambda v: UniformPredictor(v).num_classes, InvalidInput, 1),
    "EchoPredictor": (
        lambda v: EchoPredictor(np.zeros((T, G, 1), dtype=int), v).num_classes, InvalidInput, 1,
    ),
    "BigramPredictor.num_classes": (lambda v: BigramPredictor(v, 1).num_classes, InvalidInput, 1),
    "BigramPredictor.num_layers": (lambda v: BigramPredictor(3, v).num_layers, InvalidInput, 1),
    "SpeechTokenSeq.vocab": (
        lambda v: SpeechTokenSeq(np.zeros(3, dtype=int), vocab=v).vocab, InvalidInput, 1,
    ),
    "float_stream_bitrate": (lambda v: float_stream_bitrate(v, 25.0), InvalidConfig, 1),
    "index_to_codes": (lambda v: index_to_codes(v, SPEC), InvalidIndex, 0),
}


class TestCheckedInt:
    @pytest.mark.parametrize("value", [2, np.int8(2), np.uint64(2), 2.0, np.float32(2.0)])
    def test_integers_and_whole_floats_pass_as_int(self, value):
        out = _checked_int(value, "x", InvalidConfig)
        assert type(out) is int and out == 2

    @pytest.mark.parametrize(
        "value", [True, np.bool_(True), "2", 2.5, float("nan"), float("inf"), None, [2], 2j],
    )
    def test_non_integers_fail(self, value):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            _checked_int(value, "x", InvalidConfig)

    def test_bounds(self):
        assert _checked_int(3, "x", InvalidConfig, low=3, high=4) == 3
        with pytest.raises(InvalidConfig, match=r"x must be >= 3, got 2"):
            _checked_int(2, "x", InvalidConfig, low=3)
        with pytest.raises(InvalidConfig, match=r"x must lie in \[0, 4\), got 4"):
            _checked_int(4, "x", InvalidConfig, high=4)

    def test_values_past_int64_stay_exact(self):
        assert _checked_int(np.uint64(2**64 - 1), "x", InvalidIndex) == 2**64 - 1
        spec = LevelSpec((3,) * 40)  # 3**40 lies between 2**63 and 2**64
        assert index_to_codes(3**40 - 1, spec).tolist() == [2] * 40


@pytest.mark.parametrize("name", sorted(INT_SITES))
class TestEveryIntSite:
    def test_a_whole_float_is_stored_as_int(self, name):
        call, _, low = INT_SITES[name]
        out, expected = call(float(low + 1)), call(low + 1)
        assert type(out) is type(expected) and np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "bad, message",
        [(2.5, "must be an integer"), (True, "must be an integer"), ("2", "must be an integer"),
         (None, "must (be >=|lie in)")],
        ids=["fraction", "bool", "str", "below-low"],
    )
    def test_bad_value_fails(self, name, bad, message):
        call, error, low = INT_SITES[name]
        if bad is None:
            bad = low - 1
        with pytest.raises(error, match=message):
            call(bad)


# name: the call on an fps value
FPS_SITES = {
    "StreamHeader": lambda f: StreamHeader(CFG, 1, f).fps,
    "bitrate": lambda f: bitrate(CFG, f),
    "baseline_bitrate": lambda f: baseline_bitrate(BASELINE, f),
    "float_stream_bitrate": lambda f: float_stream_bitrate(4, f),
}


@pytest.mark.parametrize("name", sorted(FPS_SITES))
class TestFps:
    @pytest.mark.parametrize("fps", [25, 25.0, np.float32(25.0), np.int64(25)])
    def test_real_numbers_pass(self, name, fps):
        assert FPS_SITES[name](fps) == FPS_SITES[name](25.0)

    @pytest.mark.parametrize("fps", [True, "25", 25j, None, [25.0]])
    def test_non_real_values_fail(self, name, fps):
        with pytest.raises(InvalidConfig, match="fps"):
            FPS_SITES[name](fps)


class TestControlTrack:
    def test_the_callers_arrays_stay_writeable(self):
        head_pose = np.zeros((T, 3))
        track = controls(head_pose=head_pose)
        assert head_pose.flags.writeable and not track.head_pose.flags.writeable
        head_pose[0, 0] = 1.0
        assert track.head_pose[0, 0] == 0.0


class TestPrevTokens:
    """`assemble_context` checks previous-layer tokens by the index rule."""

    def context(self, prev):
        return assemble_context(np.zeros(0), 1, speech(), controls(), prev_tokens=prev)

    def test_whole_floats_pass_as_int64(self):
        prev = self.context(np.ones((T, G))).prev_layer_tokens
        assert prev.dtype == np.int64 and prev.tolist() == [[1] * G] * T

    @pytest.mark.parametrize(
        "value, message",
        [(-3, "must lie in"), (0.5, "integers"), (True, "integers")],
        ids=["negative", "fraction", "bool"],
    )
    def test_bad_tokens_fail(self, value, message):
        with pytest.raises(InvalidInput, match=message):
            self.context(np.full((T, G), value))
