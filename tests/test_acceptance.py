"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 5 is known to
fail: with unit-range inputs, tanh re-bounding and a 5-level grid, every
residual magnitude falls below atanh(0.25) within two stages, so the third
and fourth stages cannot change the reconstruction and the cumulative RMSE
plateaus instead of strictly decreasing. The test states the requirement
as written and reports the measured profile.
"""

import io
import json
import math

import numpy as np
import pytest

from grfsq.baselines import BaselineConfig, baseline_encode, baseline_utilization, fit_codebooks, kmeans_fit
from grfsq.bitstream import (
    MODE_FIXED_WIDTH,
    MODE_MIXED_RADIX,
    StreamHeader,
    frame_bits,
    frame_pack,
    frame_unpack,
    read_stream,
    write_stream,
)
from grfsq.cli import main
from grfsq.fsq import LevelSpec, enumerate_codebook, fsq_quantize, ste_gradient
from grfsq.generation import (
    ControlTrack,
    EchoPredictor,
    SpeechTokenSeq,
    UniformPredictor,
    build_schedule,
    generate,
)
from grfsq.quantizer import (
    GrfsqConfig,
    bitrate,
    float_stream_bitrate,
    grfsq_dequantize,
    grfsq_quantize,
    quantize_sequence,
    utilization,
)
from recording_predictor import RecordingPredictor

SPEC5x4 = LevelSpec((5, 5, 5, 5))


def default_config() -> GrfsqConfig:
    return GrfsqConfig(12, 4, SPEC5x4, 4)


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_bitrate_table():
    """Published bitrate accounting rows, reproduced exactly."""
    rows = {
        "keypoints+jacobians (60 floats)": (float_stream_bitrate(60, 25.0), 48_000.0),
        "20-dim latent": (float_stream_bitrate(20, 25.0), 16_000.0),
        "15 3-D keypoints": (float_stream_bitrate(45, 25.0), 36_000.0),
        "128-dim expression vector": (float_stream_bitrate(128, 25.0), 102_400.0),
        "21 3-D keypoints": (float_stream_bitrate(63, 25.0), 50_400.0),
    }
    for name, (got, expected) in rows.items():
        assert got == expected, f"{name}: {got} != {expected}"
    grid_rate = bitrate(default_config(), 25.0)
    assert abs(grid_rate - 11145.3) <= 0.5, grid_rate
    assert grid_rate == 12 * 4 * math.log2(625) * 25
    report("PASS criterion 1: bitrate table rows reproduced exactly "
           f"(token stream {grid_rate:.1f} bps)")


def test_criterion_02_payload_bitrate():
    cfg = default_config()
    bits = frame_bits(cfg, MODE_MIXED_RADIX)
    assert bits == 446
    assert bits * 25 == 11150
    theory = bitrate(cfg, 25.0) / 25.0
    assert 0 <= bits - theory < 1, (bits, theory)
    report("PASS criterion 2: mixed-radix payload is 446 bits/frame "
           "(11150 bps at 25 fps, within 1 bit/frame of theory)")


def test_criterion_03_brute_force_equivalence():
    spec = SPEC5x4
    book = enumerate_codebook(spec)  # (625, 4)
    strides = np.asarray(spec.strides)
    rng = np.random.default_rng(1001)
    Z = rng.normal(0.0, 1.5, size=(10_000, 4))
    agree = 0
    for start in range(0, 10_000, 2000):
        chunk = Z[start : start + 2000]
        Y = np.tanh(chunk)
        d2 = ((Y[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
        # ties resolve to the larger flat index, matching the quantizer rule
        oracle = book.shape[0] - 1 - d2[:, ::-1].argmin(axis=1)
        got = np.array(
            [(fsq_quantize(z, spec)[0] * strides).sum() for z in chunk]
        )
        agree += int((got == oracle).sum())
    assert agree == 10_000, f"{agree}/10000 agreements"
    report("PASS criterion 3: fsq_quantize matches exhaustive nearest-codeword "
           "search on 10000/10000 seeded vectors")


def test_criterion_04_round_trip_exactness():
    cfg = default_config()
    rng = np.random.default_rng(1002)
    tensors = rng.integers(0, 625, size=(1000, 12, 4))
    for mode in (MODE_MIXED_RADIX, MODE_FIXED_WIDTH):
        for t in range(1000):
            block = frame_pack(tensors[t], cfg, mode)
            assert np.array_equal(frame_unpack(block, cfg, mode), tensors[t])
        header = StreamHeader(config=cfg, frame_count=1000, fps=25.0, packing_mode=mode)
        buf = io.BytesIO()
        write_stream(header, tensors, buf)
        buf.seek(0)
        got_header, got = read_stream(buf)
        assert got_header == header
        assert np.array_equal(got, tensors)

    frames = rng.uniform(-2, 2, size=(200, 48))
    for x in frames:
        x_hat, indices = grfsq_quantize(x, cfg)
        assert np.array_equal(grfsq_dequantize(indices, cfg), x_hat)
    report("PASS criterion 4: 1000-tensor stream round trips bit-exactly in both "
           "packing modes; dequantize reproduces x_hat bit-exactly")


def test_criterion_05_residual_monotonicity():
    """Strictly decreasing cumulative RMSE through all four residual stages.

    Known failure. The requirement pairs unit-range input with the shared
    5-level grid and tanh applied to every residual; after two stages every
    residual magnitude is below atanh(0.25) = 0.2554, tanh of it rounds to
    the zero level, and stages 3-4 are exact no-ops. The profile therefore
    plateaus (r2 == r3 == r4 bit-exactly) and cannot strictly decrease.
    """
    cfg = default_config()  # (12, 4, 5x5x5x5), no projection -> 48 dims
    rng = np.random.default_rng(1003)
    frames = rng.uniform(-1.0, 1.0, size=(1000, cfg.total_dim))
    _, _, rep = quantize_sequence(frames, cfg)
    rmse = rep.cumulative_rmse_by_residual
    profile = ", ".join(f"r{i + 1}={v:.6f}" for i, v in enumerate(rmse))
    strictly_decreasing = all(rmse[i] > rmse[i + 1] for i in range(3))
    if not strictly_decreasing:
        report(f"FAIL criterion 5: cumulative RMSE not strictly decreasing ({profile}); "
               "stages 3-4 are exact no-ops on unit-range input (tanh dead zone)")
    else:
        report(f"PASS criterion 5: cumulative RMSE strictly decreasing ({profile})")
    assert strictly_decreasing, (
        f"cumulative RMSE must strictly decrease r1->r4, got {profile}"
    )


@pytest.mark.slow
def test_criterion_06_utilization_direction():
    rng = np.random.default_rng(1004)
    D, k = 48, 8196
    means = rng.uniform(-2.5, 2.5, size=(24, D))
    comp = rng.integers(0, 24, size=10_200)
    corpus = means[comp] + rng.normal(0.0, 0.6, size=(10_200, D))
    train, evaluate = corpus[:9000], corpus[9000:]

    vq_cfg = BaselineConfig("vq", k, kmeans_iters=3, seed=2024)
    books = fit_codebooks(train, vq_cfg)
    vq_tokens, _ = baseline_encode(evaluate, vq_cfg, books)
    vq_util = baseline_utilization(vq_tokens, vq_cfg).mean_percent

    cfg = default_config()
    grid_tokens, _, _ = quantize_sequence(evaluate, cfg)
    grid_util = utilization(grid_tokens, cfg).mean_percent

    assert grid_util > vq_util, (grid_util, vq_util)
    report("PASS criterion 6: grid-quantizer mean utilization "
           f"{grid_util:.2f}% > single 8196-entry VQ {vq_util:.2f}% on held-out mixture data")


def test_criterion_07_ste_gradient():
    spec = LevelSpec((5, 5, 5, 5))
    rng = np.random.default_rng(1005)
    h = 1e-5
    worst = 0.0
    for z in rng.normal(0.0, 2.0, size=(100, 4)):
        grad = ste_gradient(z, spec, np.ones(4))
        fd = (np.tanh(z + h) - np.tanh(z - h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd))))
    assert worst < 1e-5, worst
    report(f"PASS criterion 7: STE gradient matches central differences "
           f"at 100 seeded points (max err {worst:.2e})")


def test_criterion_08_generation_contract():
    T, G, R, C = 10, 12, 4, 625
    schedule = build_schedule(T, R)
    assert len(schedule.passes) == R
    assert all(p.positions.tolist() == list(range(T)) for p in schedule.passes)

    rng = np.random.default_rng(1006)
    speech = SpeechTokenSeq(tokens=rng.integers(0, 4096, T))
    controls = ControlTrack(
        head_pose=rng.normal(size=(T, 3)),
        gaze=rng.normal(size=(T, 2)),
        blink=rng.uniform(0, 1, size=(T, 2)),
    )
    target = rng.integers(0, C, size=(T, G, R))
    recorder = RecordingPredictor(EchoPredictor(target, num_classes=C))
    out, layer_nll = generate(
        recorder, np.zeros(4), speech, controls, num_layers=R, num_groups=G, with_nll=True
    )
    assert np.array_equal(out, target)
    assert np.all(layer_nll == 0.0)
    assert len(recorder.contexts) == R
    for r, ctx in enumerate(recorder.contexts):
        expected_prev = np.zeros((T, G), dtype=np.int64) if r == 0 else target[:, :, r - 1]
        assert np.array_equal(ctx.prev_layer_tokens, expected_prev)

    _, uniform_nll = generate(
        UniformPredictor(C), np.zeros(4), speech, controls,
        num_layers=R, num_groups=G, with_nll=True,
    )
    expected = G * T * math.log(C)
    assert np.all(np.abs(uniform_nll - expected) < 1e-9)
    report("PASS criterion 8: schedule/causality contract holds; uniform NLL = "
           f"{expected:.4f} nats per layer within 1e-9; echo predictor reaches NLL 0")


def test_criterion_09_kmeans_sanity():
    rng = np.random.default_rng(1007)
    data = rng.normal(size=(500, 5))
    _, history = kmeans_fit(data, 11, 25, seed=7, return_history=True)
    assert len(history) >= 2
    assert all(history[i] >= history[i + 1] for i in range(len(history) - 1))

    blob_a = rng.normal(0, 0.1, size=(300, 2)) + [5.0, 0.0]
    blob_b = rng.normal(0, 0.1, size=(300, 2)) + [-5.0, 0.0]
    book = kmeans_fit(np.concatenate([blob_a, blob_b]), 2, 20, seed=8)
    centers = book.entries[np.argsort(book.entries[:, 0])]
    assert np.all(np.abs(centers[0] - [-5.0, 0.0]) < 0.05)
    assert np.all(np.abs(centers[1] - [5.0, 0.0]) < 0.05)
    report("PASS criterion 9: Lloyd objective monotone non-increasing; "
           "two-blob centroids recovered within 0.05")


def test_criterion_10_determinism(tmp_path, capsys):
    rng = np.random.default_rng(1008)
    frames = rng.uniform(-1, 1, size=(60, 48))
    frames_path = tmp_path / "frames.jsonl"
    with open(frames_path, "w") as fh:
        for row in frames:
            fh.write(json.dumps([float(v) for v in row]) + "\n")

    streams = []
    stdouts = []
    for name in ("a.grfq", "b.grfq"):
        out = tmp_path / name
        code = main(["encode", str(frames_path), str(out), "--seed", "42"])
        assert code == 0
        stdouts.append(capsys.readouterr().out.replace(name, "stream"))
        streams.append(out.read_bytes())
    assert streams[0] == streams[1]
    assert stdouts[0] == stdouts[1]

    ablate_args = [
        "ablate", str(frames_path), "--schemes", "vq,grvq", "--vq-k", "32",
        "--grvq-groups", "4", "--grvq-residuals", "2", "--grvq-k", "16",
        "--kmeans-iters", "5", "--seed", "42", "--groups", "12", "--levels", "5,5,5,5",
    ]
    outputs = []
    for _ in range(2):
        assert main(list(ablate_args)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    report("PASS criterion 10: encode and ablate are byte-identical across "
           "repeated seeded runs")
