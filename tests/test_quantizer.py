import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grfsq.errors import (
    ConfigMismatch,
    DegenerateCalibration,
    InvalidConfig,
    InvalidIndex,
    InvalidInput,
)
from grfsq import quantizer
from grfsq.fsq import (
    LevelSpec, _grid_values, _nearest_codes, _unflatten, codes_to_index, enumerate_codebook,
    fsq_quantize,
)
from grfsq.quantizer import (
    DEFAULT_FPS,
    DEFAULT_GROUPS,
    DEFAULT_LEVELS,
    DEFAULT_RESIDUALS,
    GrfsqConfig,
    bitrate,
    calibrate_projections,
    float_stream_bitrate,
    grfsq_dequantize,
    grfsq_quantize,
    quantize_sequence,
    utilization,
)

from reference_calibration import reference_calibrate_projections

SPEC5x4 = LevelSpec(DEFAULT_LEVELS)


def default_config() -> GrfsqConfig:
    return GrfsqConfig(DEFAULT_GROUPS, DEFAULT_RESIDUALS, SPEC5x4, SPEC5x4.d)


def random_projected_config(
    rng, groups=3, residuals=2, d=2, group_dim=5, levels=None
) -> GrfsqConfig:
    downs = []
    for _ in range(groups):
        q, _ = np.linalg.qr(rng.normal(size=(group_dim, group_dim)))
        downs.append(q[:, :d].T.astype(np.float32).astype(np.float64))
    spec = LevelSpec((5,) * d if levels is None else levels)
    return GrfsqConfig(groups, residuals, spec, group_dim, tuple(downs))


def reference_walk(x, cfg):
    """Independent walk of the group/residual recursion using only fsq ops."""
    dg = cfg.group_dim
    indices = np.zeros((cfg.num_groups, cfg.num_residuals), dtype=np.int64)
    recon = np.zeros(cfg.total_dim)
    residuals_seen = []
    for g in range(cfg.num_groups):
        down = cfg.projections[g] if cfg.projections is not None else None
        residual = np.array(x[g * dg : (g + 1) * dg], dtype=np.float64)
        for r in range(cfg.num_residuals):
            residuals_seen.append((g, r, residual.copy()))
            z = down @ residual if down is not None else residual
            codes, values = fsq_quantize(z, cfg.level_spec)
            q = down.T @ values if down is not None else values
            recon[g * dg : (g + 1) * dg] += q
            residual = residual - q
            indices[g, r] = codes_to_index(codes, cfg.level_spec)
    return recon, indices, residuals_seen


class TestConfig:
    def test_total_dim(self):
        assert default_config().total_dim == 48
        assert default_config().codebook_size == 625

    def test_dimension_invariants(self):
        with pytest.raises(InvalidConfig):
            GrfsqConfig(12, 4, SPEC5x4, 10)  # no projections, group_dim != d
        with pytest.raises(InvalidConfig):
            GrfsqConfig(0, 4, SPEC5x4, 4)
        with pytest.raises(InvalidConfig):
            GrfsqConfig(12, 0, SPEC5x4, 4)

    def test_codebook_past_int64_fails(self):
        with pytest.raises(InvalidConfig, match="signed 64-bit"):
            GrfsqConfig(1, 1, LevelSpec((2,) * 63), 63)

    def test_projection_shape_and_orthonormality(self):
        good = np.eye(2, 5)
        GrfsqConfig(1, 1, LevelSpec((5, 5)), 5, (good,))
        with pytest.raises(InvalidConfig):
            GrfsqConfig(1, 1, LevelSpec((5, 5)), 5, (np.ones((2, 5)),))
        with pytest.raises(InvalidConfig):
            GrfsqConfig(2, 1, LevelSpec((5, 5)), 5, (good,))  # one matrix short

    def test_projections_are_one_read_only_stack(self):
        rng = np.random.default_rng(4)
        a = random_projected_config(rng)
        mats = a.projections.copy()
        b = GrfsqConfig(a.num_groups, a.num_residuals, a.level_spec, a.group_dim, mats)
        assert a.projections.shape == (a.num_groups, a.level_spec.d, a.group_dim)
        assert a.projections.dtype == np.float64
        assert not a.projections.flags.writeable and not a.projections[0].flags.writeable
        mats[0, 0, 0] = 5.0  # the config holds its own copy
        assert a == b

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda m: m[:1], "expected 3 projections, got 1"),
            (lambda m: [m[0], m[1][:, :4], m[2]], r"projection 1 must have shape \(2, 5\)"),
            (lambda m: [m[0], m[1], m[2] + np.inf], "projection 2 contains non-finite"),
            (lambda m: [m[0], 2 * m[1], np.nan * m[2]], "projection 2 contains non-finite"),
            (lambda m: [m[0], 2 * m[1], 2 * m[2]], "projection 1 rows are not orthonormal"),
        ],
        ids=["count", "shape", "inf", "non-finite-first", "orthonormal"],
    )
    def test_first_bad_projection_is_named(self, damage, message):
        good = [np.eye(2, 5), np.eye(2, 5, 1), np.eye(2, 5, 3)]
        with pytest.raises(InvalidConfig, match=message):
            GrfsqConfig(3, 1, LevelSpec((5, 5)), 5, damage(good))

    def test_equality(self):
        rng = np.random.default_rng(3)
        a = random_projected_config(rng)
        b = GrfsqConfig(a.num_groups, a.num_residuals, a.level_spec, a.group_dim, a.projections)
        assert a == b
        assert a != default_config()


class TestQuantizeFrame:
    def test_zero_frame_center_code(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((5,)), 1)
        x_hat, indices = grfsq_quantize([0.0], cfg)
        assert indices.tolist() == [[2]]
        assert x_hat.tolist() == [0.0]

    def test_saturation_two_groups(self):
        cfg = GrfsqConfig(2, 1, LevelSpec((3,)), 1)
        x_hat, indices = grfsq_quantize([1e9, -1e9], cfg)
        assert indices.tolist() == [[2], [0]]
        assert x_hat.tolist() == [1.0, -1.0]

    def test_two_residual_hand_walk(self):
        # tanh(0.8)=0.664 -> level 1.0 (code 2); residual -0.2,
        # tanh(-0.2)=-0.197 -> level 0.0 (code 1)
        cfg = GrfsqConfig(1, 2, LevelSpec((3,)), 1)
        x_hat, indices = grfsq_quantize([0.8], cfg)
        assert indices.tolist() == [[2, 1]]
        assert x_hat.tolist() == [1.0]

    def test_matches_reference_walk(self):
        rng = np.random.default_rng(42)
        cfg = GrfsqConfig(4, 3, LevelSpec((5, 4)), 2)
        for x in rng.normal(0.0, 1.2, size=(25, cfg.total_dim)):
            x_hat, indices = grfsq_quantize(x, cfg)
            ref_recon, ref_indices, _ = reference_walk(x, cfg)
            assert np.array_equal(indices, ref_indices)
            assert np.array_equal(x_hat, ref_recon)

    def test_matches_reference_walk_projected(self):
        rng = np.random.default_rng(43)
        cfg = random_projected_config(rng)
        for x in rng.normal(0.0, 1.2, size=(25, cfg.total_dim)):
            x_hat, indices = grfsq_quantize(x, cfg)
            ref_recon, ref_indices, _ = reference_walk(x, cfg)
            assert np.array_equal(indices, ref_indices)
            assert np.array_equal(x_hat, ref_recon)

    def test_per_stage_nearest_level_oracle(self):
        # each stage's codes must be the nearest codeword to tanh(residual)
        cfg = GrfsqConfig(1, 4, LevelSpec((3,)), 1)
        book = enumerate_codebook(cfg.level_spec)
        residual = np.array([0.8])
        _, indices = grfsq_quantize([0.8], cfg)
        for r in range(4):
            y = np.tanh(residual)
            d2 = ((book - y) ** 2).sum(axis=1)
            expected = int(np.flatnonzero(d2 == d2.min()).max())
            assert indices[0, r] == expected
            residual = residual - book[expected]

    def test_telescoping_residuals(self):
        rng = np.random.default_rng(5)
        cfg = GrfsqConfig(2, 4, LevelSpec((5, 5)), 2)
        x = rng.normal(0.0, 1.5, cfg.total_dim)
        _, _, residuals_seen = reference_walk(x, cfg)
        _, indices = grfsq_quantize(x, cfg)
        ref_recon, ref_indices, _ = reference_walk(x, cfg)
        assert np.array_equal(indices, ref_indices)
        # x_g minus the running sum of stage outputs equals the next residual seen
        book = enumerate_codebook(cfg.level_spec)
        for g in range(cfg.num_groups):
            running = np.array(x[g * 2 : (g + 1) * 2])
            for r in range(cfg.num_residuals):
                seen = [res for gg, rr, res in residuals_seen if gg == g and rr == r][0]
                assert np.array_equal(running, seen)
                running = running - book[indices[g, r]]

    def test_group_independence(self):
        rng = np.random.default_rng(6)
        cfg = default_config()
        x = rng.normal(size=cfg.total_dim)
        _, base = grfsq_quantize(x, cfg)
        for g in (0, 5, 11):
            lo, hi = g * cfg.group_dim, (g + 1) * cfg.group_dim
            other = np.array(x)
            outside = np.concatenate([np.arange(0, lo), np.arange(hi, cfg.total_dim)])
            other[outside] = rng.permutation(other[outside]) + 0.37
            _, changed = grfsq_quantize(other, cfg)
            assert np.array_equal(changed[g], base[g])

    def test_rejects_bad_frames(self):
        cfg = default_config()
        with pytest.raises(InvalidInput):
            grfsq_quantize([float("nan")] * cfg.total_dim, cfg)
        with pytest.raises(InvalidInput):
            grfsq_quantize(np.zeros(47), cfg)


class TestDequantize:
    def test_center_codes_give_zero_frame(self):
        cfg = default_config()
        center = codes_to_index([2, 2, 2, 2], SPEC5x4)
        indices = np.full((12, 4), center, dtype=np.int64)
        assert grfsq_dequantize(indices, cfg).tolist() == [0.0] * 48

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for cfg in (default_config(), random_projected_config(rng)):
            for x in rng.normal(0.0, 2.0, size=(50, cfg.total_dim)):
                x_hat, indices = grfsq_quantize(x, cfg)
                assert np.array_equal(grfsq_dequantize(indices, cfg), x_hat)

    def test_two_residual_sum(self):
        cfg = GrfsqConfig(1, 2, LevelSpec((3,)), 1)
        assert grfsq_dequantize(np.array([[2, 1]]), cfg).tolist() == [1.0]

    @staticmethod
    def whole_array_dequantize(indices, cfg):
        """The dequantizer before it went in blocks: grid values of every frame at once."""
        arr = np.asarray(indices)
        values = _grid_values(_unflatten(arr, cfg.level_spec), cfg.level_spec.levels)
        acc = np.zeros(arr.shape[:-1] + (cfg.group_dim,))
        for r in range(cfg.num_residuals):
            q = values[..., r, :]
            if cfg.projections is not None:
                q = quantizer._project(cfg.projections.transpose(0, 2, 1), q)
            acc = acc + q
        return acc.reshape(arr.shape[:-2] + (cfg.total_dim,))

    @pytest.mark.parametrize("lead", [
        (0,), (1,), (quantizer._CHUNK,), (2 * quantizer._CHUNK + 3,), (2, quantizer._CHUNK + 1),
    ])
    @pytest.mark.parametrize("projected", [False, True])
    def test_blocks_match_whole_array_formula(self, lead, projected):
        rng = np.random.default_rng(len(lead) * 1000 + lead[-1])
        cfg = random_projected_config(rng) if projected else default_config()
        shape = lead + (cfg.num_groups, cfg.num_residuals)
        indices = rng.integers(0, cfg.codebook_size, size=shape)
        got = grfsq_dequantize(indices, cfg)
        want = self.whole_array_dequantize(indices, cfg)
        assert got.shape == want.shape == lead + (cfg.total_dim,)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_memory_stays_near_the_output(self):
        # the output, the checked copy of the indices and one block's
        # temporaries; all frames at once peaked at about 13 times the output
        cfg = default_config()
        indices = np.random.default_rng(3).integers(0, cfg.codebook_size, size=(8000, 12, 4))
        tracemalloc.start()
        try:
            out = grfsq_dequantize(indices, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + indices.nbytes + (4 << 20)

    def test_int64_indices_are_not_copied(self):
        # int64 indices are checked in place: 20 000 frames once peaked at
        # 16.3 MiB, the output plus a 7.3 MiB copy of the indices plus temporaries
        cfg = default_config()
        indices = np.random.default_rng(3).integers(0, cfg.codebook_size, size=(20000, 12, 4))
        tracemalloc.start()
        try:
            out = grfsq_dequantize(indices, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + indices.nbytes // 2

    def test_rejects_invalid_indices(self):
        cfg = default_config()
        bad = np.zeros((12, 4), dtype=np.int64)
        bad[0, 0] = 625
        with pytest.raises(InvalidIndex):
            grfsq_dequantize(bad, cfg)
        with pytest.raises(InvalidIndex):
            grfsq_dequantize(np.zeros((12, 3), dtype=np.int64), cfg)


class TestQuantizeSequence:
    def test_empty_sequence(self):
        cfg = default_config()
        tokens, recon, report = quantize_sequence(np.zeros((0, 48)), cfg)
        assert tokens.shape == (0, 12, 4)
        assert recon.shape == (0, 48)
        assert report.per_frame_rmse.shape == (0,)
        assert report.cumulative_rmse_by_residual.tolist() == [0.0] * 4
        assert report.mean_rmse == 0.0

    def test_all_zero_frames(self):
        cfg = default_config()
        tokens, recon, report = quantize_sequence(np.zeros((10, 48)), cfg)
        center = codes_to_index([2, 2, 2, 2], SPEC5x4)
        assert np.all(tokens == center)
        assert np.all(recon == 0.0)
        assert report.mean_rmse == 0.0

    def test_rows_match_single_frame_calls(self):
        rng = np.random.default_rng(8)
        cfg = default_config()
        frames = rng.uniform(-1, 1, size=(20, 48))
        tokens, recon, _ = quantize_sequence(frames, cfg)
        for t in range(20):
            x_hat, indices = grfsq_quantize(frames[t], cfg)
            assert np.array_equal(tokens[t], indices)
            assert np.array_equal(recon[t], x_hat)

    @pytest.mark.parametrize("projected", [False, True])
    def test_batches_match_reference_walk(self, projected):
        # more rows than two encode batches, so batch seams are crossed
        rng = np.random.default_rng(10)
        if projected:
            cfg = random_projected_config(rng, groups=12, residuals=4, d=4, group_dim=8)
        else:
            cfg = default_config()
        frames = rng.normal(0.0, 1.5, size=(2 * quantizer._CHUNK + 3, cfg.total_dim))
        tokens, recon, _ = quantize_sequence(frames, cfg)
        for t, x in enumerate(frames):
            ref_recon, ref_indices, _ = reference_walk(x, cfg)
            assert np.array_equal(tokens[t], ref_indices)
            assert np.array_equal(recon[t], ref_recon)
        assert np.array_equal(grfsq_dequantize(tokens, cfg), recon)

    def test_cumulative_rmse_refinement_profile(self):
        # With unit-range input every residual magnitude drops below
        # atanh(0.25) within two stages, so stages 3 and 4 of a 5-level grid
        # cannot move: the cumulative RMSE strictly improves once, then
        # plateaus exactly.
        rng = np.random.default_rng(2024)
        cfg = default_config()
        frames = rng.uniform(-1.0, 1.0, size=(1000, 48))
        _, _, report = quantize_sequence(frames, cfg)
        rmse = report.cumulative_rmse_by_residual
        assert rmse[0] > rmse[1]
        assert rmse[1] == rmse[2] == rmse[3]

    def test_cumulative_rmse_non_increasing_on_wide_data(self):
        rng = np.random.default_rng(2025)
        cfg = default_config()
        frames = rng.normal(0.0, 2.0, size=(400, 48))
        _, _, report = quantize_sequence(frames, cfg)
        rmse = report.cumulative_rmse_by_residual
        assert all(rmse[i] >= rmse[i + 1] for i in range(3))
        assert rmse[0] > rmse[-1]

    def test_ragged_input_rejected(self):
        cfg = default_config()
        with pytest.raises(InvalidInput):
            quantize_sequence([[0.0] * 48, [0.0] * 47], cfg)
        with pytest.raises(ConfigMismatch):
            quantize_sequence(np.zeros((3, 12)), cfg)


def old_encode(frames, cfg):
    """The encoder before the stage function, as a reference: its own grid
    and up-projection loop per chunk, every truncated reconstruction kept as
    partials (R, chunk, D), and the stage errors summed from the partials.
    Returns (reconstruction, cumulative RMSE by stage)."""
    levels = np.asarray(cfg.level_spec.levels, dtype=np.float64)
    project = quantizer._project
    ups = None if cfg.projections is None else cfg.projections.transpose(0, 2, 1)
    recon = np.empty_like(frames)
    sq_err = np.zeros(cfg.num_residuals)
    for s in range(0, len(frames), quantizer._CHUNK):
        chunk = frames[s : s + quantizer._CHUNK]
        residual = chunk.reshape(len(chunk), cfg.num_groups, cfg.group_dim)
        acc = np.zeros_like(residual)
        partials = np.empty((cfg.num_residuals,) + chunk.shape)
        for r in range(cfg.num_residuals):
            z = residual if cfg.projections is None else project(cfg.projections, residual)
            values = _grid_values(_nearest_codes(np.tanh(z), levels), levels)
            q = values if ups is None else project(ups, values)
            acc = acc + q
            residual = residual - q
            partials[r] = acc.reshape(chunk.shape)
        recon[s : s + quantizer._CHUNK] = partials[-1]
        sq_err += ((chunk - partials) ** 2).sum(axis=(1, 2))
    return recon, np.sqrt(sq_err / max(frames.size, 1))


@st.composite
def encoder_cases(draw):
    """A config, with or without projections, and frames whose count may
    cross the encoder's and decoder's `_CHUNK` seams."""
    levels = draw(st.lists(st.sampled_from([2, 3, 4, 5, 8, 255]), min_size=1, max_size=3))
    groups, residuals = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = len(levels)
    if draw(st.booleans()):
        group_dim = d + draw(st.integers(0, 3))
        cfg = random_projected_config(rng, groups, residuals, d, group_dim, levels)
    else:
        cfg = GrfsqConfig(groups, residuals, LevelSpec(levels), d)
    c = quantizer._CHUNK
    T = draw(st.sampled_from([0, 1, c - 1, c, c + 1, 2 * c + 3]))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    return cfg, rng.normal(0.0, scale, size=(T, cfg.total_dim))


class TestStageFunction:
    """The encoder and the decoder build each stage with one function."""

    @settings(max_examples=100, deadline=None)
    @given(encoder_cases())
    def test_decode_and_stage_errors_match_the_partials(self, case):
        cfg, frames = case
        tokens, recon, report = quantize_sequence(frames, cfg)
        want_recon, want_rmse = old_encode(frames, cfg)
        assert recon.tobytes() == want_recon.tobytes()
        assert grfsq_dequantize(tokens, cfg).tobytes() == recon.tobytes()
        assert report.cumulative_rmse_by_residual.tobytes() == want_rmse.tobytes()


def per_frame_config(projected: bool) -> GrfsqConfig:
    if projected:
        return random_projected_config(np.random.default_rng(5), groups=3, residuals=3)
    return default_config()


@pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
@pytest.mark.parametrize("T", [0, 1, 255, 256, 257])
def test_per_frame_rmse_equals_the_whole_array_figure(T, projected):
    """The encoder takes each frame's RMSE from its own chunk's squared
    error; it must equal `_frame_rmse` over the whole arrays bit for bit,
    across the `_CHUNK` seam, and so must the mean."""
    cfg = per_frame_config(projected)
    frames = np.random.default_rng(T).normal(0.0, 2.0, (T, cfg.total_dim))
    _, recon, report = quantize_sequence(frames, cfg)
    per_frame, mean = quantizer._frame_rmse(frames, recon)
    assert report.per_frame_rmse.tobytes() == per_frame.tobytes()
    assert report.mean_rmse == mean and type(report.mean_rmse) is float


@pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
def test_a_frame_whose_error_overflows_is_refused(projected):
    # one frame past the first chunk squares past float64; the suite makes
    # an overflow warning an error, so none may escape either
    cfg = per_frame_config(projected)
    frames = np.random.default_rng(6).normal(size=(300, cfg.total_dim))
    frames[260] = 1e160
    with pytest.raises(InvalidInput) as info:
        quantize_sequence(frames, cfg)
    assert str(info.value) == "frames too large: their squared error overflows float64"


@st.composite
def projection_cases(draw):
    """Per-group matrices (G, m, n), C-ordered or a transposed view as the
    up-projection reads them, and vectors (..., G, n) with 0 to 2 lead axes."""
    G, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    reals = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        stacked = draw(hnp.arrays(np.float64, (G, n, m), elements=reals)).transpose(0, 2, 1)
    else:
        stacked = draw(hnp.arrays(np.float64, (G, m, n), elements=reals))
    return stacked, draw(hnp.arrays(np.float64, lead + (G, n), elements=reals))


@settings(max_examples=200, deadline=None)
@given(projection_cases())
def test_project_sums_each_output_in_index_order(case):
    """`_project` gives, bit for bit, a plain-Python sum over k = 0, 1, ...
    of one rounded product each: no BLAS order and no fused multiply-add."""
    stacked, v = case
    got = quantizer._project(stacked, v)
    _, m, n = stacked.shape
    assert got.shape == v.shape[:-1] + (m,)
    for *lead, g in np.ndindex(v.shape[:-1]):
        for i in range(m):
            acc = float(stacked[g, i, 0]) * float(v[(*lead, g, 0)])
            for k in range(1, n):
                acc += float(stacked[g, i, k]) * float(v[(*lead, g, k)])
            assert got[(*lead, g, i)].tobytes() == np.float64(acc).tobytes()


class TestCalibration:
    def test_identity_when_dims_match(self):
        cfg = default_config()
        rng = np.random.default_rng(11)
        out = calibrate_projections(rng.normal(size=(100, 48)), cfg)
        assert out.projections is not None
        for mat in out.projections:
            assert np.array_equal(mat, np.eye(4))

    def test_line_embedded_in_three_dims(self):
        rng = np.random.default_rng(12)
        direction = np.array([2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        data = rng.normal(size=(500, 1)) * direction
        cfg = GrfsqConfig(1, 1, LevelSpec((5,)), 3, (np.eye(1, 3),))
        out = calibrate_projections(data, cfg)
        axis = out.projections[0][0]
        # sign convention: largest-magnitude component positive
        assert axis[np.argmax(np.abs(axis))] > 0
        assert abs(abs(axis @ direction) - 1.0) < 1e-6

    def test_anisotropic_gaussian_axis_recovery(self):
        rng = np.random.default_rng(13)
        angle = 0.7
        u = np.array([math.cos(angle), math.sin(angle)])
        v = np.array([-math.sin(angle), math.cos(angle)])
        data = 3.0 * rng.normal(size=(10_000, 1)) * u + 0.1 * rng.normal(size=(10_000, 1)) * v
        cfg = GrfsqConfig(1, 1, LevelSpec((5,)), 2, (np.eye(1, 2),))
        out = calibrate_projections(data, cfg)
        axis = out.projections[0][0]
        angular_error = math.acos(min(1.0, abs(float(axis @ u))))
        assert angular_error < 1e-2

    def test_degenerate_data_rejected(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((5, 5)), 4, (np.eye(2, 4),))
        with pytest.raises(DegenerateCalibration):
            calibrate_projections(np.ones((50, 4)), cfg)

    def test_needs_enough_frames(self):
        cfg = GrfsqConfig(1, 1, LevelSpec((5, 5)), 4, (np.eye(2, 4),))
        with pytest.raises(InvalidInput):
            calibrate_projections(np.zeros((1, 4)), cfg)

    @pytest.mark.parametrize("d, group_dim", [(1, 3), (2, 4), (4, 6)])
    def test_needs_one_frame_past_d(self, d, group_dim):
        # centering leaves d frames at rank d - 1, so they can never give d axes
        cfg = GrfsqConfig(1, 1, LevelSpec((5,) * d), group_dim, (np.eye(d, group_dim),))
        data = np.random.default_rng(16).normal(size=(d + 1, group_dim))
        too_few = rf"^need at least {d + 1} calibration frames, got {d}$"
        with pytest.raises(InvalidInput, match=too_few):
            calibrate_projections(data[:d], cfg)
        assert calibrate_projections(data, cfg).projections.shape == (1, d, group_dim)

    def test_deterministic_and_single_precision(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(300, 10))
        cfg = GrfsqConfig(2, 2, LevelSpec((5, 5)), 5, (np.eye(2, 5), np.eye(2, 5)))
        a = calibrate_projections(data, cfg)
        b = calibrate_projections(data, cfg)
        for ma, mb in zip(a.projections, b.projections):
            assert np.array_equal(ma, mb)
            assert np.array_equal(ma, ma.astype(np.float32).astype(np.float64))

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(400, 8)) @ np.diag([3, 2, 1.5, 1, 0.5, 0.3, 0.2, 0.1])
        cfg = GrfsqConfig(1, 1, LevelSpec((5, 5, 5)), 8, (np.eye(3, 8),))
        out = calibrate_projections(data, cfg)
        gram = out.projections[0] @ out.projections[0].T
        assert np.allclose(gram, np.eye(3), atol=1e-6)


def calibration_outcome(calibrate, frames, cfg):
    try:
        return calibrate(frames, cfg).projections
    except (InvalidInput, DegenerateCalibration) as exc:
        return type(exc), str(exc)


class TestCalibrationMatchesReference:
    """`calibrate_projections` reads the top d axes from the end of `eigh`'s
    ascending order and orients them in one array step; the per-axis reference
    sorts and orients them one at a time. Continuous and wide integer draws keep
    exact eigenvalue ties, whose order the reference leaves to `np.argsort`, out."""

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_projections_and_refusals(self, seed):
        rng = np.random.default_rng([2028, seed])
        for case in range(10):
            groups, d = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            group_dim = int(rng.integers(d + 1, 21))  # past numpy's small-sort cutoff
            frames = int(rng.integers(d + 1, 401))
            cfg = GrfsqConfig(
                groups, 1, LevelSpec((5,) * d), group_dim, (np.eye(d, group_dim),) * groups
            )
            shape = (frames, groups * group_dim)
            if case % 3 == 2:
                data = rng.integers(-1000, 1001, size=shape)
            else:
                scale = 10.0 ** rng.uniform(-3, 3)
                data = rng.normal(size=shape) * scale * rng.uniform(0.1, 1.0, size=shape[1])
            if case % 5 == 4:
                g = int(rng.integers(groups))
                data[:, g * group_dim : (g + 1) * group_dim] = data[0, g * group_dim]
            for order in "CF":
                arranged = np.asarray(data, order=order)
                got = calibration_outcome(calibrate_projections, arranged, cfg)
                want = calibration_outcome(reference_calibrate_projections, arranged, cfg)
                if isinstance(want, tuple):
                    assert isinstance(got, tuple) and got == want
                else:
                    assert np.array_equal(got, want)


class TestBitrate:
    def test_reference_rows(self):
        # continuous float latent streams at 25 fps
        assert float_stream_bitrate(60, 25.0) == 48_000.0
        assert float_stream_bitrate(20, 25.0) == 16_000.0
        assert float_stream_bitrate(45, 25.0) == 36_000.0
        assert float_stream_bitrate(128, 25.0) == 102_400.0
        assert float_stream_bitrate(63, 25.0) == 50_400.0

    def test_token_rows(self):
        cfg = default_config()
        assert abs(bitrate(cfg, DEFAULT_FPS) - 11145.25485545934) < 1e-6
        eight = GrfsqConfig(8, 4, SPEC5x4, 4)
        assert abs(bitrate(eight, 25.0) - 7430.169903639559) < 1e-6
        tiny = GrfsqConfig(1, 1, LevelSpec((2,)), 1)
        assert bitrate(tiny, 1.0) == 1.0

    def test_matches_hand_arithmetic(self):
        cfg = GrfsqConfig(12, 2, SPEC5x4, 4)
        assert bitrate(cfg, 25.0) == 12 * 2 * math.log2(625) * 25

    def test_rejects_bad_fps(self):
        with pytest.raises(InvalidConfig):
            bitrate(default_config(), 0.0)
        with pytest.raises(InvalidConfig):
            bitrate(default_config(), float("nan"))


class TestUtilization:
    def test_constant_frame(self):
        cfg = default_config()
        tokens, _, _ = quantize_sequence(np.tile(np.linspace(-1, 1, 48), (30, 1)), cfg)
        report = utilization(tokens, cfg)
        assert np.allclose(report.per_codebook_percent, 100.0 / 625)
        assert abs(report.mean_percent - 100.0 / 625) < 1e-12
        assert report.mean_percent != 0.0

    def test_full_coverage(self):
        cfg = GrfsqConfig(2, 1, LevelSpec((3,)), 1)
        tokens = np.stack([np.arange(3), np.arange(3)], axis=1)[:, :, None]
        report = utilization(tokens, cfg)
        assert report.mean_percent == 100.0

    def test_mean_is_arithmetic(self):
        # ten-entry codebooks at 10% and 20% coverage average to 15%
        cfg = GrfsqConfig(2, 1, LevelSpec((10,)), 1)
        tokens = np.zeros((10, 2, 1), dtype=np.int64)
        tokens[5:, 1, 0] = 1
        report = utilization(tokens, cfg)
        assert report.per_codebook_percent.ravel().tolist() == [10.0, 20.0]
        assert report.mean_percent == 15.0

    def test_empty_tensor_flags_warning(self):
        cfg = default_config()
        report = utilization(np.zeros((0, 12, 4), dtype=np.int64), cfg)
        assert report.mean_percent == 0.0

    def test_rejects_out_of_range(self):
        cfg = default_config()
        bad = np.full((2, 12, 4), 625, dtype=np.int64)
        with pytest.raises(InvalidIndex):
            utilization(bad, cfg)
