import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grfsq.errors import InvalidInput, PredictorContractViolation
from grfsq.fsq import LevelSpec
from grfsq.generation import (
    BigramPredictor,
    ControlTrack,
    EchoPredictor,
    RowGrid,
    SpeechTokenSeq,
    UniformPredictor,
    _smoothed_rows,
    argmax_sample,
    assemble_context,
    build_schedule,
    generate,
    load_controls,
    load_speech_tokens,
    nll,
    validate_prediction_grid,
)
from grfsq.quantizer import GrfsqConfig, quantize_sequence
from recording_predictor import RecordingPredictor
from reference_bigram import ReferenceBigram


def make_inputs(T, vocab=16, seed=50, num_groups=3):
    rng = np.random.default_rng(seed)
    speech = SpeechTokenSeq(tokens=rng.integers(0, vocab, T), vocab=vocab)
    controls = ControlTrack(
        head_pose=rng.normal(size=(T, 3)),
        gaze=rng.normal(size=(T, 2)),
        blink=rng.uniform(0, 1, size=(T, 2)),
    )
    return speech, controls


class TestSchedule:
    def test_four_by_four(self):
        schedule = build_schedule(4, 4)
        assert schedule.num_layers == 4
        assert len(schedule.passes) == 4
        for r, layer_pass in enumerate(schedule.passes):
            assert layer_pass.layer == r
            assert layer_pass.positions.tolist() == [0, 1, 2, 3]

    def test_empty_sequence(self):
        schedule = build_schedule(0, 3)
        assert len(schedule.passes) == 3
        assert all(p.positions.size == 0 for p in schedule.passes)

    def test_single_pass(self):
        schedule = build_schedule(7, 1)
        assert len(schedule.passes) == 1
        assert schedule.passes[0].positions.tolist() == list(range(7))

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            build_schedule(-1, 2)
        with pytest.raises(InvalidInput):
            build_schedule(3, 0)


class TestAssembleContext:
    def test_layer_zero_uses_sentinel(self):
        speech, controls = make_inputs(5)
        prev = np.full((5, 3), 9, dtype=np.int64)
        ctx = assemble_context(np.zeros(4), 0, speech, controls, prev_tokens=prev)
        assert np.all(ctx.prev_layer_tokens == 0)
        assert np.all(ctx.framewise[:, -3:] == 0.0)

    def test_later_layers_embed_tokens_verbatim(self):
        speech, controls = make_inputs(5)
        prev = np.arange(15).reshape(5, 3)
        ctx = assemble_context(np.zeros(4), 2, speech, controls, prev_tokens=prev)
        assert np.array_equal(ctx.prev_layer_tokens, prev)
        assert np.array_equal(ctx.framewise[:, -3:], prev.astype(float))

    def test_framewise_layout(self):
        speech, controls = make_inputs(4)
        ctx = assemble_context(np.zeros(2), 0, speech, controls, num_groups=3)
        assert ctx.framewise.shape == (4, 1 + 3 + 2 + 2 + 3)
        assert np.array_equal(ctx.framewise[:, 0], speech.tokens.astype(float))
        assert np.array_equal(ctx.framewise[:, 1:4], controls.head_pose)
        assert np.array_equal(ctx.framewise[:, 4:6], controls.gaze)
        assert np.array_equal(ctx.framewise[:, 6:8], controls.blink)

    def test_length_mismatch_rejected(self):
        speech, _ = make_inputs(5)
        _, controls = make_inputs(6)
        with pytest.raises(InvalidInput):
            assemble_context(np.zeros(2), 0, speech, controls, num_groups=3)

    def test_layer_above_zero_needs_tokens(self):
        speech, controls = make_inputs(5)
        with pytest.raises(InvalidInput):
            assemble_context(np.zeros(2), 1, speech, controls, num_groups=3)


class TestNll:
    def test_uniform_analytic(self):
        T, G, C = 10, 12, 625
        probs = np.full((T, G, C), 1.0 / C)
        targets = np.zeros((T, G), dtype=np.int64)
        assert abs(nll(probs, targets) - G * T * math.log(C)) < 1e-9

    def test_perfect_predictor_is_zero(self):
        probs = np.zeros((2, 3, 4))
        targets = np.array([[0, 1, 2], [3, 2, 1]])
        t_idx, g_idx = np.indices(targets.shape)
        probs[t_idx, g_idx, targets] = 1.0
        assert nll(probs, targets) == 0.0

    def test_direct_evaluation(self):
        probs = np.zeros((2, 1, 4))
        probs[0, 0] = [0.5, 0.3, 0.1, 0.1]
        probs[1, 0] = [0.25, 0.25, 0.25, 0.25]
        targets = np.array([[0], [1]])
        expected = -(math.log(0.5) + math.log(0.25))
        assert abs(nll(probs, targets) - expected) < 1e-12
        assert abs(expected - 2.0794415416798357) < 1e-12

    def test_no_cells_score_positive_zero(self):
        value = nll(np.zeros((0, 2, 3)), np.zeros((0, 2), dtype=np.int64))
        assert math.copysign(1.0, value) == 1.0

    def test_floor_keeps_nll_finite(self):
        probs = np.zeros((1, 1, 2))
        probs[0, 0] = [1.0, 0.0]
        value = nll(probs, np.array([[1]]))
        assert math.isfinite(value)
        assert abs(value - (-math.log(1e-12))) < 1e-9

    def test_shape_mismatch(self):
        probs = np.full((2, 2, 3), 1 / 3)
        with pytest.raises(InvalidInput):
            nll(probs, np.zeros((2, 3), dtype=np.int64))


class TestArgmaxSample:
    def test_one_hot(self):
        probs = np.zeros((1, 2, 3))
        probs[0, 0, 2] = 1.0
        probs[0, 1, 1] = 1.0
        assert argmax_sample(probs).tolist() == [[2, 1]]

    def test_uniform_ties_to_lowest(self):
        probs = np.full((3, 2, 5), 0.2)
        assert np.all(argmax_sample(probs) == 0)

    def test_simple_max(self):
        probs = np.array([[[0.2, 0.5, 0.3]]])
        assert argmax_sample(probs).tolist() == [[1]]

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(51)
        probs = rng.dirichlet(np.ones(6), size=(4, 3))
        scaled = probs * 7.3
        scaled /= scaled.sum(axis=2, keepdims=True)
        assert np.array_equal(argmax_sample(probs), argmax_sample(scaled))

    def test_rejects_invalid_grid(self):
        with pytest.raises(InvalidInput):
            argmax_sample(np.full((1, 1, 3), 0.5))  # rows do not sum to 1


class TestGenerate:
    def test_echo_predictor_reproduces_target(self):
        T, G, R = 6, 3, 4
        rng = np.random.default_rng(52)
        target = rng.integers(0, 10, size=(T, G, R))
        speech, controls = make_inputs(T)
        predictor = EchoPredictor(target, num_classes=10)
        out, layer_nll = generate(
            predictor, np.zeros(2), speech, controls, num_layers=R, num_groups=G, with_nll=True
        )
        assert np.array_equal(out, target)
        assert np.all(layer_nll == 0.0)

    def test_predictor_called_once_per_layer_and_causally(self):
        T, G, R = 5, 3, 4
        rng = np.random.default_rng(53)
        target = rng.integers(0, 8, size=(T, G, R))
        speech, controls = make_inputs(T)
        recorder = RecordingPredictor(EchoPredictor(target, num_classes=8))
        out = generate(recorder, np.zeros(2), speech, controls, num_layers=R, num_groups=G)
        assert len(recorder.contexts) == R
        for r, ctx in enumerate(recorder.contexts):
            assert ctx.layer_indicator == r
            if r == 0:
                assert np.all(ctx.prev_layer_tokens == 0)
            else:
                # only the previous layer's tokens are visible
                assert np.array_equal(ctx.prev_layer_tokens, target[:, :, r - 1])
                assert np.array_equal(ctx.prev_layer_tokens, out[:, :, r - 1])

    def test_uniform_predictor_nll(self):
        T, G, R, C = 10, 12, 4, 625
        speech, controls = make_inputs(T)
        out, layer_nll = generate(
            UniformPredictor(C), np.zeros(2), speech, controls,
            num_layers=R, num_groups=G, with_nll=True,
        )
        assert np.all(out == 0)  # argmax tie-break
        expected = G * T * math.log(C)
        assert np.all(np.abs(layer_nll - expected) < 1e-9)

    def test_bad_grid_shape_raises_contract_violation(self):
        speech, controls = make_inputs(4)

        def bad_predictor(context):
            return np.full((4, 2, 5), 0.2)  # wrong group count

        with pytest.raises(PredictorContractViolation):
            generate(bad_predictor, np.zeros(2), speech, controls, num_layers=2, num_groups=3)

    def test_class_count_must_stay_constant(self):
        speech, controls = make_inputs(4)
        calls = {"n": 0}

        def shifty(context):
            calls["n"] += 1
            classes = 5 if calls["n"] == 1 else 6
            return np.full((4, 3, classes), 1.0 / classes)

        with pytest.raises(PredictorContractViolation):
            generate(shifty, np.zeros(2), speech, controls, num_layers=2, num_groups=3)

    def test_grid_without_classes_raises_contract_violation(self):
        speech, controls = make_inputs(3)

        def no_classes(context):
            return np.zeros((3, 2, 0))  # every row sums to 0

        with pytest.raises(PredictorContractViolation, match="layer 0: .*sum to 1"):
            generate(no_classes, np.zeros(2), speech, controls, num_layers=2, num_groups=2)


class TestGridShapeContract:
    """Layer 0's grid fixes the shape, (T, groups, C), that every layer's grid must have."""

    @pytest.mark.parametrize("form", ["dense", "rows"])
    def test_class_count_change_names_both_shapes(self, form):
        speech, controls = make_inputs(4)

        def shifty(context):
            classes = 6 if context.layer_indicator else 5
            row = np.full((1, classes), 1.0 / classes)
            if form == "dense":
                return np.broadcast_to(row, (4, 3, classes))
            return RowGrid(row, np.zeros((4, 3), dtype=int))

        with pytest.raises(
            PredictorContractViolation,
            match=r"layer 1: grid shape \(4, 3, 6\), expected \(4, 3, 5\)",
        ):
            generate(shifty, np.zeros(2), speech, controls, num_layers=2, num_groups=3)

    @pytest.mark.parametrize("shape, message", [
        ((), r"grid shape \(\), expected \(4, 3\)"),
        ((4,), r"grid shape \(4,\), expected \(4, 3\)"),
        ((4, 3), r"prediction grid must be \(T, G, C\), got shape \(4, 3\)"),
        ((4, 3, 5, 1), r"grid shape \(4, 3, 5, 1\), expected \(4, 3, 5\)"),
    ], ids=["0-d", "1-d", "2-d", "4-d"])
    def test_grid_not_3d_at_layer_0(self, shape, message):
        speech, controls = make_inputs(4)
        with pytest.raises(PredictorContractViolation, match=f"^layer 0: {message}$"):
            generate(lambda ctx: np.full(shape, 0.2), np.zeros(2), speech, controls,
                     num_layers=2, num_groups=3)


class TestGenerateValidatesOnce:
    """generate() validates each grid once and scores that same array."""

    @pytest.mark.parametrize(
        "bad_value, message",
        [(np.nan, "finite"), (-0.1, "non-negative"), (0.3, "sum to 1")],
    )
    def test_bad_grid_names_the_layer(self, bad_value, message):
        speech, controls = make_inputs(4)
        C = 5

        def predictor(context):
            grid = np.full((4, 3, C), 1.0 / C)
            if context.layer_indicator == 1:
                grid[2, 1, 3] = bad_value
            return grid

        with pytest.raises(PredictorContractViolation, match=f"layer 1: .*{message}"):
            generate(predictor, np.zeros(2), speech, controls, num_layers=3, num_groups=3)

    def test_one_validation_per_layer(self, monkeypatch):
        import grfsq.generation as generation

        calls = []
        real = generation.validate_prediction_grid

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(generation, "validate_prediction_grid", counting)
        speech, controls = make_inputs(6)
        generate(
            UniformPredictor(5), np.zeros(2), speech, controls,
            num_layers=4, num_groups=3, with_nll=True,
        )
        assert len(calls) == 4

    def test_layer_nll_is_nll_of_argmax(self):
        T, G, R, C, vocab = 30, 4, 3, 50, 8
        rng = np.random.default_rng(55)
        train = rng.integers(0, C, size=(T, G, R))
        model = BigramPredictor.fit(
            train, SpeechTokenSeq(tokens=rng.integers(0, vocab, T), vocab=vocab), C
        )
        speech, controls = make_inputs(T, vocab=vocab)
        recorder = RecordingPredictor(model)
        out, layer_nll = generate(
            recorder, np.zeros(2), speech, controls, num_layers=R, num_groups=G, with_nll=True
        )
        assert len(recorder.contexts) == R
        for r, ctx in enumerate(recorder.contexts):
            grid = model(ctx)
            assert np.array_equal(out[:, :, r], argmax_sample(grid))
            assert layer_nll[r] == nll(grid, argmax_sample(grid))


def grid_forms(rows, which):
    """One layer's prediction in the three forms generate() accepts: a dense
    grid, a RowGrid with one row per cell, and the compressed RowGrid."""
    dense = rows[which]
    T, G, C = dense.shape
    per_cell = RowGrid(dense.reshape(T * G, C), np.arange(T * G).reshape(T, G))
    return {"dense": dense, "per-cell": per_cell, "compressed": RowGrid(rows, which)}


def run_forms(layers, T, G):
    """generate() once per form, on layers = [(rows, which), ...]; returns
    {form: tokens and per-layer NLL, or the PredictorContractViolation message}."""
    speech, controls = make_inputs(T)
    results = {}
    for form in ("dense", "per-cell", "compressed"):
        grids = [grid_forms(rows, which)[form] for rows, which in layers]
        try:
            results[form] = generate(
                lambda ctx: grids[ctx.layer_indicator], np.zeros(2), speech, controls,
                num_layers=len(layers), num_groups=G, with_nll=True,
            )
        except PredictorContractViolation as exc:
            results[form] = str(exc)
    return results


class TestRowPathMatchesDensePath:
    """A dense grid, the same grid as one row per cell, and its distinct rows
    give equal tokens, bit-equal per-layer NLL and the same errors."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_tokens_and_nll(self, data):
        T, G, C, R = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, 9), (1, 3), (1, 6), (1, 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        layers = []
        for _ in range(R):
            P = data.draw(st.integers(1, 5))
            rows = rng.dirichlet(np.ones(C), size=P)
            rows[0] = 1.0 / C  # an all-tied row: argmax picks the lowest class
            layers.append((rows, rng.integers(0, P, size=(T, G))))
        results = run_forms(layers, T, G)
        dense_tokens, dense_nll = results["dense"]
        assert dense_tokens.shape == (T, G, R)
        for form in ("per-cell", "compressed"):
            tokens, layer_nll = results[form]
            assert np.array_equal(tokens, dense_tokens)
            assert layer_nll.tolist() == dense_nll.tolist()  # bit-equal, not approx

    @pytest.mark.parametrize(
        "bad_value, message",
        [(np.nan, "finite and non-negative"), (-0.1, "finite and non-negative"),
         (0.3, "sum to 1")],
    )
    def test_bad_row_same_message(self, bad_value, message):
        rows = np.full((3, 5), 0.2)
        which = np.array([[0, 1, 2], [2, 1, 0], [1, 1, 1], [0, 0, 2]])
        bad = rows.copy()
        bad[1, 3] = bad_value
        results = run_forms([(rows, which), (bad, which)], 4, 3)
        assert results["dense"] == results["per-cell"] == results["compressed"]
        assert results["dense"].startswith("layer 1: ")
        assert message in results["dense"]

    def test_non_finite_wins_over_earlier_row_sum(self):
        rows = np.full((4, 5), 0.2)
        rows[0, 0] = 0.3  # bad sum in the first row and the first cells
        rows[3, 2] = np.inf  # a later row and cell holds a non-finite value
        which = np.array([[0, 1], [2, 1], [2, 3]])
        results = run_forms([(rows, which)], 3, 2)
        assert results["dense"] == results["per-cell"] == results["compressed"]
        assert "finite and non-negative" in results["dense"]

    def test_zero_frames(self):
        rows = np.array([[0.25, 0.75]])
        results = run_forms([(rows, np.zeros((0, 2), dtype=np.intp))] * 2, 0, 2)
        for tokens, layer_nll in results.values():
            assert tokens.shape == (0, 2, 2)
            assert layer_nll.tolist() == [0.0, 0.0]


class TestPublicGridFunctionsTakeRows:
    """validate_prediction_grid, argmax_sample and nll check a RowGrid as its
    rows, as generate does, without building its dense grid."""

    @pytest.mark.parametrize("call", [
        validate_prediction_grid,
        argmax_sample,
        lambda grid: nll(grid, np.zeros(grid.shape[:2], dtype=np.int64)),
        lambda grid: generate(
            lambda ctx: grid, np.zeros(2), *make_inputs(4), num_layers=1, num_groups=3
        ),
    ], ids=["validate_prediction_grid", "argmax_sample", "nll", "generate"])
    def test_unreferenced_bad_row_is_refused(self, call):
        rows = np.full((2, 5), 0.2)
        rows[1, 3] = np.nan  # no cell uses row 1
        grid = RowGrid(rows, np.zeros((4, 3), dtype=np.intp))
        with pytest.raises((InvalidInput, PredictorContractViolation), match="finite"):
            call(grid)

    def test_validation_returns_the_row_grid(self):
        grid = RowGrid(np.full((1, 4), 0.25), np.zeros((2, 3), dtype=np.intp))
        assert validate_prediction_grid(grid) is grid

    def test_few_rows_of_a_large_grid(self):
        T, G, C = 2000, 12, 625  # one dense grid is 120 MB
        rng = np.random.default_rng(59)
        grid = RowGrid(rng.dirichlet(np.ones(C), size=3), rng.integers(0, 3, size=(T, G)))
        dense = np.asarray(grid)
        tokens, value = argmax_sample(dense), nll(dense, argmax_sample(dense))
        del dense
        peak = TestGenerationMemory.peak_bytes(
            lambda: (argmax_sample(grid), nll(grid, argmax_sample(grid)))
        )
        assert peak < 4 << 20
        assert np.array_equal(argmax_sample(grid), tokens)
        assert nll(grid, tokens) == value


class TestGenerationMemory:
    """generate() holds a layer's distinct rows, never its (T, G, C) grid."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_uniform_predictor(self):
        T, G, R, C = 2000, 12, 4, 625  # one dense grid is 120 MB
        speech, controls = make_inputs(T)
        peak = self.peak_bytes(lambda: generate(
            UniformPredictor(C), np.zeros(2), speech, controls,
            num_layers=R, num_groups=G, with_nll=True,
        ))
        assert peak < 16 << 20

    def test_bigram_predictor(self, tmp_path):
        from grfsq.bitstream import read_stream
        from test_schedule_sim_golden import G, R, T_GEN, VOCAB, _write_inputs

        _write_inputs(tmp_path)
        with open(tmp_path / "train.grfq", "rb") as fh:
            _, train = read_stream(fh)
        train_speech = load_speech_tokens(tmp_path / "train_speech.txt", vocab=VOCAB)
        model = BigramPredictor.fit(train, train_speech, 625)
        speech = load_speech_tokens(tmp_path / "speech.txt", vocab=VOCAB)
        controls = load_controls(tmp_path / "controls.jsonl")
        peak = self.peak_bytes(lambda: generate(
            model, np.zeros(8), speech, controls, num_layers=R, num_groups=G, with_nll=True
        ))
        assert peak < T_GEN * G * 625 * 8 // 2  # half of one dense grid

    def test_bigram_fit_holds_counts_not_class_tables(self):
        # 400 cells per layer and channel over 1024 classes: dense (K + 1, C)
        # tables would take megabytes, the sparse counts take kilobytes
        T, G, R, C = 200, 2, 2, 1024
        train = np.random.default_rng(58).integers(0, C, size=(T, G, R))
        speech, controls = make_inputs(T, vocab=8)
        peak = self.peak_bytes(lambda: generate(
            BigramPredictor.fit(train, speech, C), np.zeros(0), speech, controls,
            num_layers=R, num_groups=G, with_nll=True,
        ))
        assert peak < 2 << 20


def full_array_verdict(grid):
    """The validation verdict computed over the whole array at once."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.size:
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            return "probabilities must be finite and non-negative"
        if np.any(np.abs(arr.sum(axis=2) - 1.0) > 1e-9):
            return "each (frame, group) row must sum to 1 within 1e-9"
    return None


def blocked_verdict(grid):
    try:
        validate_prediction_grid(grid)
    except InvalidInput as exc:
        return str(exc)
    return None


class TestBlockedValidation:
    """validate_prediction_grid reaches the verdict, and the message, of a
    check over the whole array, whatever the grid's length and wherever the
    bad value lies."""

    G, C = 3, 4  # 12 cells per frame

    def uniform(self, T):
        return np.full((T, self.G, self.C), 1.0 / self.C)

    @pytest.mark.parametrize("T", [0, 1, 3, 4, 5, 13])
    def test_valid_grids_of_any_length(self, T):
        grid = self.uniform(T)
        assert validate_prediction_grid(grid) is grid

    def test_frames_not_a_multiple_of_the_real_block(self):
        T = 10927  # two blocks of 5461 frames and 5 more, when validation ran in blocks
        grid = self.uniform(T)
        assert validate_prediction_grid(grid) is grid
        grid[-1, -1, -1] = np.nan
        with pytest.raises(InvalidInput, match="finite"):
            validate_prediction_grid(grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_bad_value_in_last_block_only(self, bad):
        grid = self.uniform(13)  # blocks of 4, 4, 4 and 1 frames
        grid[12, 2, 3] = bad
        with pytest.raises(InvalidInput, match="finite and non-negative"):
            validate_prediction_grid(grid)

    def test_row_sum_in_earlier_block_loses_to_later_nan(self):
        grid = self.uniform(13)
        grid[1, 0, 0] = 0.3  # bad row sum in the first block
        with pytest.raises(InvalidInput, match="sum to 1"):
            validate_prediction_grid(grid)
        grid[9, 1, 2] = np.nan  # a later block holds a non-finite value
        with pytest.raises(InvalidInput, match="finite"):
            validate_prediction_grid(grid)

    def test_random_damage_matches_whole_array_check(self):
        rng = np.random.default_rng(58)
        for _ in range(300):
            T = int(rng.integers(0, 14))
            grid = rng.dirichlet(np.ones(self.C), size=(T, self.G))
            for _ in range(int(rng.integers(0, 3))):
                if T:
                    cell = (rng.integers(T), rng.integers(self.G), rng.integers(self.C))
                    grid[cell] = rng.choice([np.nan, np.inf, -0.5, 0.5, grid[cell] + 1e-8])
            assert blocked_verdict(grid) == full_array_verdict(grid)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    def test_non_float64_grids_from_a_predictor(self, dtype):
        T = 10
        speech, controls = make_inputs(T)
        target = np.random.default_rng(59).integers(0, self.C, size=(T, self.G, 2))
        echo = EchoPredictor(target, num_classes=self.C)  # one-hot rows

        def cast(context):
            grid = echo(context)
            if dtype is np.float32:  # quarters are exact in single precision
                grid = 0.5 * grid + 0.125
            return grid.astype(dtype)

        out, layer_nll = generate(
            cast, np.zeros(2), speech, controls, num_layers=2, num_groups=self.G, with_nll=True
        )
        assert np.array_equal(out, target)
        expected = 0.0 if dtype is not np.float32 else -T * self.G * math.log(0.625)
        assert layer_nll.tolist() == pytest.approx([expected, expected])


class TestBigramMatchesReference:
    """The predictor, counting on demand, equals the per-(t, g) dict reference bit for bit."""

    @staticmethod
    def assert_tables_match(model, ref):
        for r in range(ref.num_layers):
            targets = model._targets[:, :, r]
            trained_prev = model._targets[:, :, r - 1] if r else np.zeros_like(targets)
            trained_speech = np.broadcast_to(model._speech[:, None], targets.shape)
            for symbols, counts in (
                (trained_prev, ref.prev_counts[r]),
                (trained_speech, ref.speech_counts[r]),
            ):
                keys = np.unique(symbols).tolist()
                assert keys == sorted(counts)
                # every seen symbol's row, then one unseen symbol's row
                asked = keys + [max(keys, default=-1) + 1]
                rows = _smoothed_rows(np.array(asked), symbols, targets, ref.num_classes)
                for row, symbol in zip(rows, asked, strict=True):
                    assert np.array_equal(row, ref.channel(counts, symbol))

    @staticmethod
    def assert_predictions_match(model, ref, speech, prev_layers):
        T = len(speech)
        controls = ControlTrack(
            head_pose=np.zeros((T, 3)), gaze=np.zeros((T, 2)), blink=np.zeros((T, 2))
        )
        G = prev_layers[0].shape[1]
        for layer, prev in enumerate(prev_layers):
            ctx = assemble_context(
                np.zeros(2), layer, speech, controls,
                prev_tokens=None if layer == 0 else prev, num_groups=G,
            )
            got, want = model(ctx), ref(ctx)
            assert got.shape == want.shape == (T, G, ref.num_classes)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("num_groups", [1, 3])
    @pytest.mark.parametrize("num_classes", [7, 50, 625])
    def test_fit_and_predict(self, num_classes, num_groups):
        T, G, R, C, vocab = 40, num_groups, 3, num_classes, 16
        rng = np.random.default_rng(56)
        # trained tokens avoid 0 and C-1, trained speech avoids 0..3 and 12..15
        train = rng.integers(1, C - 1, size=(T, G, R))
        train_speech = rng.integers(4, 12, T)
        model = BigramPredictor.fit(train, SpeechTokenSeq(tokens=train_speech, vocab=vocab), C)
        ref = ReferenceBigram.fit(train, train_speech, C)
        self.assert_tables_match(model, ref)

        speech = SpeechTokenSeq(tokens=np.arange(T) % vocab, vocab=vocab)
        prev_layers = [np.zeros((T, G), dtype=np.int64)]
        for _ in range(1, R):
            prev = rng.integers(0, C, size=(T, G))
            prev[0, 0], prev[-1, -1] = 0, C - 1  # below and above every trained key
            prev[1, 0] = train[0, 0, 0]  # and at least one seen key
            prev_layers.append(prev)
        self.assert_predictions_match(model, ref, speech, prev_layers)

    def test_unfitted_model(self):
        model, ref = BigramPredictor(num_classes=7, num_layers=2), ReferenceBigram(7, 2)
        self.assert_tables_match(model, ref)
        speech = SpeechTokenSeq(tokens=np.array([0, 3, 1]), vocab=4)
        prev_layers = [np.zeros((3, 2), dtype=np.int64), np.array([[0, 6], [2, 3], [5, 1]])]
        self.assert_predictions_match(model, ref, speech, prev_layers)

    def test_zero_frames(self):
        C, vocab = 9, 4
        empty = SpeechTokenSeq(tokens=np.zeros(0, dtype=np.int64), vocab=vocab)
        train = np.zeros((0, 2, 2), dtype=np.int64)
        model = BigramPredictor.fit(train, empty, C)
        ref = ReferenceBigram.fit(train, empty.tokens, C)
        self.assert_tables_match(model, ref)
        prev_layers = [np.zeros((0, 2), dtype=np.int64)] * 2
        self.assert_predictions_match(model, ref, empty, prev_layers)
        # a model fitted on frames also predicts an empty sequence
        rng = np.random.default_rng(57)
        train = rng.integers(0, C, size=(5, 2, 2))
        speech = rng.integers(0, vocab, 5)
        model = BigramPredictor.fit(train, SpeechTokenSeq(tokens=speech, vocab=vocab), C)
        ref = ReferenceBigram.fit(train, speech, C)
        self.assert_predictions_match(model, ref, empty, prev_layers)


    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_models_and_contexts(self, data):
        T_fit, T, G, R = (
            data.draw(st.integers(lo, hi)) for lo, hi in ((0, 300), (0, 300), (1, 5), (1, 3))
        )
        C = data.draw(st.sampled_from([1, 2, 7, 625]))
        vocab = data.draw(st.sampled_from([1, 3, 300]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            train = rng.integers(0, C, size=(T_fit, G, R))
            train_speech = rng.integers(0, vocab, T_fit)
            model = BigramPredictor.fit(train, SpeechTokenSeq(tokens=train_speech, vocab=vocab), C)
            ref = ReferenceBigram.fit(train, train_speech, C)
        else:
            model, ref = BigramPredictor(C, R), ReferenceBigram(C, R)
        self.assert_tables_match(model, ref)
        speech = SpeechTokenSeq(tokens=rng.integers(0, vocab, T), vocab=vocab)
        # previous tokens within the classes, or anywhere in int64
        high = data.draw(st.sampled_from([C, np.iinfo(np.int64).max]))
        prev_layers = [np.zeros((T, G), dtype=np.int64)]
        prev_layers += [rng.integers(0, high, size=(T, G)) for _ in range(1, R)]
        self.assert_predictions_match(model, ref, speech, prev_layers)


class TestBigramPredictor:
    def periodic_corpus(self, T=240, period=8):
        # periodic motion gives the count model real structure to learn
        t = np.arange(T)
        base = np.stack(
            [np.sin(2 * np.pi * ((t / period) + phase)) for phase in np.linspace(0, 0.9, 8)],
            axis=1,
        )
        return np.tile(base, (1, 1))

    def test_beats_uniform_on_held_out_half(self):
        cfg = GrfsqConfig(2, 2, LevelSpec((5, 5, 5, 5)), 4)
        frames = self.periodic_corpus()
        tokens, _, _ = quantize_sequence(frames, cfg)
        T = tokens.shape[0]
        vocab = 16
        rng = np.random.default_rng(54)
        speech_tokens = (np.arange(T) // 4) % vocab  # correlated with the period
        half = T // 2
        train_speech = SpeechTokenSeq(tokens=speech_tokens[:half].astype(np.int64), vocab=vocab)
        test_speech = SpeechTokenSeq(tokens=speech_tokens[half:].astype(np.int64), vocab=vocab)
        model = BigramPredictor.fit(tokens[:half], train_speech, num_classes=625)

        controls = ControlTrack(
            head_pose=np.zeros((T - half, 3)),
            gaze=np.zeros((T - half, 2)),
            blink=np.zeros((T - half, 2)),
        )
        total_model = 0.0
        total_uniform = 0.0
        prev = None
        for layer in range(2):
            ctx = assemble_context(
                np.zeros(2), layer, test_speech, controls, prev_tokens=prev, num_groups=2
            )
            grid = model(ctx)
            targets = tokens[half:, :, layer]
            total_model += nll(grid, targets)
            total_uniform += (T - half) * 2 * math.log(625)
            prev = targets
        assert total_model < total_uniform

    def test_unknown_symbols_fall_back_to_uniform(self):
        speech = SpeechTokenSeq(tokens=np.zeros(3, dtype=np.int64), vocab=4)
        controls = ControlTrack(
            head_pose=np.zeros((3, 3)), gaze=np.zeros((3, 2)), blink=np.zeros((3, 2))
        )
        model = BigramPredictor(num_classes=7, num_layers=1)
        ctx = assemble_context(np.zeros(1), 0, speech, controls, num_groups=2)
        grid = model(ctx)
        assert np.allclose(grid, 1.0 / 7)


class TestValidation:
    def test_speech_token_bounds(self):
        with pytest.raises(InvalidInput):
            SpeechTokenSeq(tokens=np.array([0, 5]), vocab=5)
        with pytest.raises(InvalidInput):
            SpeechTokenSeq(tokens=np.array([-1]), vocab=5)

    def test_control_track_shapes(self):
        with pytest.raises(InvalidInput):
            ControlTrack(head_pose=np.zeros((3, 2)), gaze=np.zeros((3, 2)), blink=np.zeros((3, 2)))
        with pytest.raises(InvalidInput):
            ControlTrack(head_pose=np.zeros((3, 3)), gaze=np.zeros((2, 2)), blink=np.zeros((3, 2)))


class TestSpeechVocabCap:
    """Speech tokens reach predictors through the float64 context, which is
    exact only up to 2**53, so no larger vocabulary is accepted."""

    def test_vocab_past_the_cap_is_refused(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text(f"{2**53 + 1}\n{2**53 + 3}\n")
        message = r"vocab must be at most 2\*\*53"
        with pytest.raises(InvalidInput, match=message):
            SpeechTokenSeq(tokens=np.array([2**53 + 1, 2**53 + 3]), vocab=2**60)
        with pytest.raises(InvalidInput, match=message):
            load_speech_tokens(path, vocab=2**53 + 1)

    def test_tokens_at_the_cap_stay_exact(self):
        a, b = 2**53 - 3, 2**53 - 1
        train = SpeechTokenSeq(tokens=np.array([a, a, b, b]), vocab=2**53)
        model = BigramPredictor.fit(np.array([0, 0, 1, 1])[:, None, None], train, 2)
        speech = SpeechTokenSeq(tokens=np.array([a, b]), vocab=2**53)
        controls = ControlTrack(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
        grid = model(assemble_context(np.zeros(0), 0, speech, controls, num_groups=1))
        assert np.asarray(grid)[:, 0].tolist() == [[0.75, 0.25], [0.25, 0.75]]


class TestFileLoaders:
    def test_speech_tokens_round_trip(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("3\n1\n\n2\n")
        seq = load_speech_tokens(path, vocab=4)
        assert seq.tokens.tolist() == [3, 1, 2]

    def test_speech_tokens_validated(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("3\n9\n")
        with pytest.raises(InvalidInput, match="tokens.txt:2"):
            load_speech_tokens(path, vocab=4)
        path.write_text("abc\n")
        with pytest.raises(InvalidInput):
            load_speech_tokens(path, vocab=4)

    @pytest.mark.parametrize("vocab", [0, -3])
    def test_speech_vocab_checked_before_tokens(self, tmp_path, vocab):
        path = tmp_path / "tokens.txt"
        path.write_text("72\n")
        with pytest.raises(InvalidInput, match=f"vocab must be >= 1, got {vocab}"):
            load_speech_tokens(path, vocab=vocab)

    def test_controls_round_trip(self, tmp_path):
        path = tmp_path / "controls.jsonl"
        rows = [
            {"h": [0.1, 0.2, 0.3], "g": [0.0, -0.1], "b": [0.5, 0.6]},
            {"h": [1.0, 1.1, 1.2], "g": [0.2, 0.3], "b": [0.7, 0.8]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        track = load_controls(path)
        assert track.num_frames == 2
        assert track.head_pose[1].tolist() == [1.0, 1.1, 1.2]
        assert track.blink[0].tolist() == [0.5, 0.6]

    def test_controls_validated(self, tmp_path):
        path = tmp_path / "controls.jsonl"
        path.write_text(json.dumps({"h": [1, 2], "g": [0, 0], "b": [0, 0]}) + "\n")
        with pytest.raises(InvalidInput, match="controls.jsonl:1"):
            load_controls(path)
        path.write_text("not json\n")
        with pytest.raises(InvalidInput):
            load_controls(path)
