import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grfsq.cli import main


def write_jsonl_frames(path, frames):
    with open(path, "w") as fh:
        for row in frames:
            fh.write(json.dumps([float(v) for v in row]) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def frames48(tmp_path):
    rng = np.random.default_rng(60)
    frames = rng.uniform(-1, 1, size=(40, 48))
    path = tmp_path / "frames.jsonl"
    write_jsonl_frames(path, frames)
    return path, frames


class TestLoadFrames:
    def test_jsonl_and_csv_read_back_exactly(self, tmp_path):
        from grfsq.cli import _load_frames

        frames = np.random.default_rng(62).uniform(-3, 3, size=(7, 5))
        frames[0, :2] = [0.0, -1.0]
        jsonl, csv_path = tmp_path / "f.jsonl", tmp_path / "f.csv"
        # integers and floats may mix in a JSON row
        jsonl.write_text("".join(
            json.dumps([0, -1, *map(float, row[2:])] if t == 0 else row.tolist()) + "\n"
            for t, row in enumerate(frames)
        ))
        csv_path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in frames))
        for path in (jsonl, csv_path):
            got = _load_frames(str(path))
            assert got.dtype == np.float64 and got.shape == (7, 5)
            assert np.array_equal(got, frames)

    def test_rows_of_no_values(self, tmp_path):
        from grfsq.cli import _load_frames

        path = tmp_path / "empty_rows.jsonl"
        path.write_text("[]\n\n[]\n")
        assert _load_frames(str(path)).shape == (2, 0)


class TestEncode:
    def test_zero_frames_defaults(self, tmp_path, capsys):
        path = tmp_path / "zeros.jsonl"
        write_jsonl_frames(path, np.zeros((100, 48)))
        out = tmp_path / "zeros.grfq"
        code, stdout, _ = run(capsys, "encode", str(path), str(out))
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["rmse"] == 0.0
        assert abs(metrics["utilization"]["mean_percent"] - 100.0 / 625) < 1e-9
        assert abs(metrics["bitrate_bps"] - 11145.25485545934) < 1e-6
        assert metrics["payload_bps"] == 11150.0
        assert metrics["bits_per_frame"] == 446

    def test_decode_matches_reported_reconstruction(self, tmp_path, capsys, frames48):
        path, _ = frames48
        stream = tmp_path / "out.grfq"
        recon = tmp_path / "recon.jsonl"
        decoded = tmp_path / "decoded.jsonl"
        code, _, _ = run(capsys, "encode", str(path), str(stream), "--recon-out", str(recon))
        assert code == 0
        code, stdout, _ = run(capsys, "decode", str(stream), str(decoded))
        assert code == 0
        assert json.loads(stdout)["frames"] == 40
        assert decoded.read_bytes() == recon.read_bytes()

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "frames.csv"
        rng = np.random.default_rng(61)
        frames = rng.uniform(-1, 1, size=(10, 4))
        with open(path, "w") as fh:
            for row in frames:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out = tmp_path / "out.grfq"
        code, stdout, _ = run(capsys, "encode", str(path), str(out), "--groups", "1")
        assert code == 0
        assert json.loads(stdout)["frames"] == 10

    def test_ragged_line_exits_2_with_lineno(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("[0.0, 0.0]\n[0.0]\n")
        code, _, stderr = run(capsys, "encode", str(path), str(tmp_path / "x.grfq"),
                              "--groups", "1", "--levels", "5,5")
        assert code == 2
        assert ":2" in stderr

    @pytest.mark.parametrize("literal", ["1" * 400, "1" * 5000])
    def test_integer_too_large_for_float_exits_2(self, tmp_path, capsys, literal):
        # 400 digits overflow float(); 5000 digits pass Python's int parsing limit
        path = tmp_path / "big.jsonl"
        path.write_text(f"[0.0, 0.0]\n[0.0, {literal}]\n")
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(capsys, "encode", str(path), str(out),
                                   "--groups", "1", "--levels", "5,5")
        assert code == 2
        assert f"{path}:2" in stderr
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("row", ["[true, false]", "[0.5, true]"])
    def test_boolean_value_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "bools.jsonl"
        path.write_text(f"[0.0, 0.0]\n{row}\n")
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(capsys, "encode", str(path), str(out),
                                   "--groups", "1", "--levels", "5,5")
        assert code == 2
        assert f"{path}:2" in stderr
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("name, text, message", [
        ("bad.csv", "0.0,0.0\n0.0,abc\n", ":2: non-numeric CSV cell"),
        ("bad.jsonl", "[0.0, 0.0]\n{\"x\": 0.0}\n", ":2: expected an array of numbers"),
        ("blank.jsonl", "\n  \n\n", ": no frames found"),
    ], ids=["csv-cell", "json-not-array", "only-blank-lines"])
    def test_bad_frame_file_exits_2_naming_the_line(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(capsys, "encode", str(path), str(out),
                                   "--groups", "1", "--levels", "5,5")
        assert code == 2
        assert f"{path}{message}" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_fps_is_reported_as_given(self, tmp_path, capsys, frames48):
        import math

        path, _ = frames48
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(capsys, "encode", str(path), str(out), "--fps", "29.97")
        assert code == 0, stderr
        report = json.loads(stdout)
        assert '"fps": 29.97' in stdout and report["config"]["fps"] == 29.97
        assert report["bitrate_bps"] == 12 * 4 * math.log2(625) * 29.97
        assert report["payload_bps"] == report["bits_per_frame"] * 29.97
        code, stdout, stderr = run(capsys, "decode", str(out), str(tmp_path / "y.jsonl"))
        assert code == 0, stderr
        assert json.loads(stdout)["fps"] == float(np.float32(29.97))  # as the stream holds it

    @pytest.mark.parametrize("flags, calibrate", [
        (("--fps", "0", "--groups", "75"), False),
        (("--fps", "0"), True),
        (("--groups", "300", "--levels", "2"), False),  # 300 groups overflow the u8 field
        (("--fps", "1e39", "--levels", "5,5,5"), True),
    ], ids=["fps", "fps-calibrated", "groups", "fps-f32-calibrated"])
    def test_stream_limits_checked_before_quantizing(
        self, tmp_path, capsys, monkeypatch, flags, calibrate
    ):
        from grfsq import cli

        def fail(*args, **kwargs):
            raise AssertionError("frames were processed before the stream limits were checked")

        monkeypatch.setattr(cli, "quantize_sequence", fail)
        monkeypatch.setattr(cli, "calibrate_projections", fail)
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.random.default_rng(68).uniform(-1, 1, size=(6, 300)))
        out = tmp_path / "x.grfq"
        extra = ("--calibrate", str(path)) if calibrate else ()
        code, stdout, stderr = run(capsys, "encode", str(path), str(out), *flags, *extra)
        assert code == 3, stderr
        assert stdout == ""
        assert not out.exists()

    def test_indivisible_dimension_exits_3(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.zeros((5, 47)))
        code, _, stderr = run(capsys, "encode", str(path), str(tmp_path / "x.grfq"))
        assert code == 3
        assert "divisible" in stderr

    def test_group_grid_mismatch_exits_3(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.zeros((5, 120)))
        code, _, stderr = run(capsys, "encode", str(path), str(tmp_path / "x.grfq"))
        assert code == 3
        assert "calibrate" in stderr

    @pytest.mark.parametrize("fps", ["0", "1e39"])
    def test_bad_fps_exits_3_without_output(self, tmp_path, capsys, frames48, fps):
        path, _ = frames48
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(capsys, "encode", str(path), str(out), "--fps", fps)
        assert code == 3
        assert stdout == ""
        assert "fps" in stderr
        assert not out.exists()

    def test_missing_input_exits_4(self, tmp_path, capsys):
        code, _, _ = run(capsys, "encode", str(tmp_path / "nope.jsonl"), str(tmp_path / "x.grfq"))
        assert code == 4

    def test_calibrated_projection_flow(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        mixing = rng.normal(size=(120, 120))
        latent = rng.normal(size=(300, 120)) @ np.diag(
            np.concatenate([np.full(60, 1.0), np.full(60, 0.05)])
        )
        frames = latent @ mixing * 0.05
        data_path = tmp_path / "frames.jsonl"
        calib_path = tmp_path / "calib.jsonl"
        write_jsonl_frames(data_path, frames[:200])
        write_jsonl_frames(calib_path, frames[200:])
        stream = tmp_path / "out.grfq"
        recon = tmp_path / "recon.jsonl"
        decoded = tmp_path / "decoded.jsonl"
        code, stdout, stderr = run(
            capsys, "encode", str(data_path), str(stream),
            "--calibrate", str(calib_path), "--recon-out", str(recon),
        )
        assert code == 0, stderr
        metrics = json.loads(stdout)
        assert metrics["config"]["projected"] is True
        assert metrics["config"]["group_dim"] == 10
        code, _, _ = run(capsys, "decode", str(stream), str(decoded))
        assert code == 0
        # projections ride the header at single precision; the decode path
        # must still match the encoder's reported reconstruction bit-exactly
        assert decoded.read_bytes() == recon.read_bytes()

    def test_fixed_width_packing(self, tmp_path, capsys, frames48):
        path, _ = frames48
        stream = tmp_path / "fixed.grfq"
        code, stdout, _ = run(capsys, "encode", str(path), str(stream), "--packing", "fixed-width")
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["bits_per_frame"] == 480
        assert metrics["payload_bps"] == 12000.0


class TestDecodeErrors:
    def test_truncated_stream_exits_2(self, tmp_path, capsys, frames48):
        path, _ = frames48
        stream = tmp_path / "out.grfq"
        run(capsys, "encode", str(path), str(stream))
        data = stream.read_bytes()
        stream.write_bytes(data[:-5])
        code, _, stderr = run(capsys, "decode", str(stream), str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "truncated" in stderr

    @pytest.mark.parametrize("fps", [float("nan"), -5.0])
    def test_invalid_header_fps_exits_2(self, tmp_path, capsys, frames48, fps):
        path, _ = frames48
        stream = tmp_path / "out.grfq"
        run(capsys, "encode", str(path), str(stream))
        data = bytearray(stream.read_bytes())
        data[20:24] = struct.pack("<f", fps)
        stream.write_bytes(bytes(data))
        decoded = tmp_path / "d.jsonl"
        code, stdout, stderr = run(capsys, "decode", str(stream), str(decoded))
        assert code == 2
        assert stdout == ""
        assert "fps" in stderr
        assert not decoded.exists()

    def test_garbage_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "bad.grfq"
        stream.write_bytes(b"NOPE" + bytes(32))
        code, _, stderr = run(capsys, "decode", str(stream), str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "magic" in stderr

    def test_empty_stream_gives_empty_output(self, tmp_path, capsys):
        import io

        from grfsq.bitstream import StreamHeader, write_stream
        from grfsq.fsq import LevelSpec
        from grfsq.quantizer import GrfsqConfig

        cfg = GrfsqConfig(12, 4, LevelSpec((5, 5, 5, 5)), 4)
        header = StreamHeader(config=cfg, frame_count=0, fps=25.0)
        stream = tmp_path / "empty.grfq"
        with open(stream, "wb") as fh:
            write_stream(header, np.zeros((0, 12, 4), dtype=np.int64), fh)
        out = tmp_path / "empty.jsonl"
        code, stdout, _ = run(capsys, "decode", str(stream), str(out))
        assert code == 0
        assert out.read_text() == ""


class TestAblate:
    def ablate_args(self, path, *extra):
        return (
            "ablate", str(path),
            "--groups", "4", "--levels", "5,5,5",
            "--vq-k", "16", "--gvq-groups", "4", "--gvq-k", "8",
            "--rvq-residuals", "3", "--rvq-k", "8",
            "--grvq-groups", "2", "--grvq-residuals", "2", "--grvq-k", "8",
            "--kmeans-iters", "6", "--seed", "5",
        ) + extra

    @pytest.fixture
    def frames12(self, tmp_path):
        rng = np.random.default_rng(63)
        frames = rng.normal(0, 1.0, size=(120, 12))
        path = tmp_path / "frames12.jsonl"
        write_jsonl_frames(path, frames)
        return path

    def test_rows_and_schema(self, capsys, frames12):
        code, stdout, stderr = run(capsys, *self.ablate_args(frames12))
        assert code == 0, stderr
        rows = json.loads(stdout)
        assert [r["scheme"] for r in rows] == ["vq", "gvq", "rvq", "grvq", "grfsq"]
        for row in rows:
            assert set(row) == {
                "scheme", "groups", "residuals", "codebook_size",
                "bitrate_bps", "rmse", "utilization_mean_percent",
            }
        grfsq_row = rows[-1]
        assert grfsq_row["codebook_size"] == 125
        assert grfsq_row["groups"] == 4

    def test_grvq_1x1_equals_vq(self, capsys, frames12):
        code, stdout, _ = run(
            capsys, "ablate", str(frames12),
            "--schemes", "vq,grvq", "--vq-k", "16",
            "--grvq-groups", "1", "--grvq-residuals", "1", "--grvq-k", "16",
            "--kmeans-iters", "6", "--seed", "5",
            "--groups", "4", "--levels", "5,5,5",
        )
        assert code == 0
        rows = {r["scheme"]: r for r in json.loads(stdout)}
        assert rows["vq"]["rmse"] == rows["grvq"]["rmse"]
        assert rows["vq"]["utilization_mean_percent"] == rows["grvq"]["utilization_mean_percent"]

    def test_csv_format(self, capsys, frames12):
        code, stdout, _ = run(capsys, *self.ablate_args(frames12, "--format", "csv"))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("scheme,groups,residuals")
        assert len(lines) == 6

    def test_unknown_scheme_exits_3(self, capsys, frames12):
        code, _, stderr = run(capsys, "ablate", str(frames12), "--schemes", "vq,magvit")
        assert code == 3
        assert "magvit" in stderr

    def test_save_codebooks(self, tmp_path, capsys, frames12):
        out_dir = tmp_path / "books"
        code, _, _ = run(
            capsys, "ablate", str(frames12), "--schemes", "vq", "--vq-k", "8",
            "--kmeans-iters", "4", "--seed", "1", "--save-codebooks", str(out_dir),
            "--groups", "4", "--levels", "5,5,5",
        )
        assert code == 0
        blob = (out_dir / "vq_g0_r0.codebook").read_bytes()
        from grfsq.baselines import codebook_from_bytes

        book = codebook_from_bytes(blob)
        assert book.k == 8 and book.dim == 12

    @pytest.mark.parametrize("bad_flag", [
        ("--groups", "0"), ("--grvq-k", "5000"), ("--fps", "0"), ("--seed", "-1"),
    ])
    def test_every_scheme_checked_before_fitting(
        self, tmp_path, capsys, monkeypatch, frames12, bad_flag
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit before every scheme's flags were checked")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        out_dir = tmp_path / "books"
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, *bad_flag, "--save-codebooks", str(out_dir))
        )
        assert code == 3, stderr
        assert stdout == ""
        assert not out_dir.exists()

    def test_holdout_split(self, capsys, frames12):
        code, stdout, _ = run(
            capsys, "ablate", str(frames12), "--schemes", "vq", "--vq-k", "8",
            "--kmeans-iters", "4", "--holdout", "0.25",
            "--groups", "4", "--levels", "5,5,5",
        )
        assert code == 0
        assert json.loads(stdout)[0]["rmse"] > 0


class TestScheduleSim:
    def write_speech_and_controls(self, tmp_path, T, vocab=32, seed=64):
        rng = np.random.default_rng(seed)
        speech = tmp_path / "speech.txt"
        speech.write_text("\n".join(str(int(v)) for v in rng.integers(0, vocab, T)) + "\n")
        controls = tmp_path / "controls.jsonl"
        with open(controls, "w") as fh:
            for _ in range(T):
                fh.write(json.dumps({
                    "h": [float(v) for v in rng.normal(size=3)],
                    "g": [float(v) for v in rng.normal(size=2)],
                    "b": [float(v) for v in rng.uniform(0, 1, 2)],
                }) + "\n")
        return speech, controls

    def test_uniform_predictor_nll(self, tmp_path, capsys):
        import math

        speech, controls = self.write_speech_and_controls(tmp_path, 10)
        out = tmp_path / "gen.grfq"
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(out), "--vocab", "32",
        )
        assert code == 0, stderr
        report = json.loads(stdout)
        expected = 12 * 10 * math.log(625)
        for value in report["per_layer_nll"]:
            assert abs(value - expected) < 1e-6
        assert report["uniform_nll_per_layer"] == expected
        from grfsq.bitstream import read_stream

        with open(out, "rb") as fh:
            header, tensor = read_stream(fh)
        assert tensor.shape == (10, 12, 4)

    def test_bigram_beats_uniform(self, tmp_path, capsys):
        from grfsq.bitstream import StreamHeader, write_stream
        from grfsq.fsq import LevelSpec
        from grfsq.quantizer import GrfsqConfig, quantize_sequence

        T, vocab = 160, 16
        rng = np.random.default_rng(65)
        t = np.arange(T)
        frames = np.stack(
            [np.sin(2 * np.pi * (t / 8 + p)) for p in np.linspace(0, 0.8, 8)], axis=1
        )
        cfg = GrfsqConfig(2, 2, LevelSpec((5, 5, 5, 5)), 4)
        tokens, _, _ = quantize_sequence(frames, cfg)
        speech_tokens = ((t // 4) % vocab).astype(int)

        train_motion = tmp_path / "train.grfq"
        header = StreamHeader(config=cfg, frame_count=T // 2, fps=25.0)
        with open(train_motion, "wb") as fh:
            write_stream(header, tokens[: T // 2], fh)
        train_speech = tmp_path / "train_speech.txt"
        train_speech.write_text("\n".join(map(str, speech_tokens[: T // 2])) + "\n")

        eval_speech = tmp_path / "eval_speech.txt"
        eval_speech.write_text("\n".join(map(str, speech_tokens[T // 2 :])) + "\n")
        controls = tmp_path / "controls.jsonl"
        with open(controls, "w") as fh:
            for _ in range(T // 2):
                fh.write(json.dumps({"h": [0, 0, 0], "g": [0, 0], "b": [0, 0]}) + "\n")

        out = tmp_path / "gen.grfq"
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(eval_speech), "--controls", str(controls),
            "--out", str(out), "--vocab", str(vocab),
            "--groups", "2", "--residuals", "2",
            "--predictor", "bigram",
            "--train-motion", str(train_motion), "--train-speech", str(train_speech),
        )
        assert code == 0, stderr
        report = json.loads(stdout)
        assert report["total_nll"] < 2 * report["uniform_nll_per_layer"]

    def test_token_out_of_vocab_exits_2(self, tmp_path, capsys):
        speech, controls = self.write_speech_and_controls(tmp_path, 5, vocab=32)
        speech.write_text("4096\n")
        code, _, _ = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"),
        )
        assert code == 2

    @pytest.mark.parametrize("literal", ["1" * 400, "1" * 5000])
    def test_control_integer_too_large_for_float_exits_2(self, tmp_path, capsys, literal):
        speech, controls = self.write_speech_and_controls(tmp_path, 3)
        lines = controls.read_text().splitlines()
        lines[1] = '{"h": [0.0, %s, 0.0], "g": [0.0, 0.0], "b": [0.0, 0.0]}' % literal
        controls.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--vocab", "32",
        )
        assert code == 2
        assert f"{controls}:2" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("field", [
        '"h": [0.0, true, 0.0], "g": [0.0, 0.0], "b": [0.0, 0.0]',
        '"h": [0.0, 0.0, 0.0], "g": [0.0, 0.0], "b": [false, false]',
    ], ids=["h", "b"])
    def test_control_boolean_exits_2(self, tmp_path, capsys, field):
        speech, controls = self.write_speech_and_controls(tmp_path, 3)
        lines = controls.read_text().splitlines()
        lines[1] = "{%s}" % field
        controls.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--vocab", "32",
        )
        assert code == 2
        assert f"{controls}:2" in stderr
        assert stdout == ""

    def test_stream_limits_checked_before_generation(self, tmp_path, capsys, monkeypatch):
        from grfsq import generation

        def fail(*args, **kwargs):
            raise AssertionError("generate() ran before the stream limits were checked")

        monkeypatch.setattr(generation, "generate", fail)
        speech, controls = self.write_speech_and_controls(tmp_path, 40)
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--groups", "300", "--levels", "3,3",
        )
        assert code == 3, stderr
        assert stdout == ""
        assert not (tmp_path / "x.grfq").exists()

    def test_groups_0_names_the_flag(self, tmp_path, capsys):
        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--groups", "0",
        )
        assert code == 3
        assert "--groups must be positive, got 0" in stderr
        assert stdout == ""

    def test_bigram_training_stream_of_another_grid_exits_3(self, tmp_path, capsys):
        from grfsq.bitstream import StreamHeader, write_stream
        from grfsq.fsq import LevelSpec
        from grfsq.quantizer import GrfsqConfig

        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        train_motion = tmp_path / "train.grfq"
        header = StreamHeader(GrfsqConfig(2, 2, LevelSpec((3, 3)), 2), frame_count=5, fps=25.0)
        with open(train_motion, "wb") as fh:
            write_stream(header, np.zeros((5, 2, 2), dtype=np.int64), fh)
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(out), "--predictor", "bigram",
            "--train-motion", str(train_motion), "--train-speech", str(speech),
        )
        assert code == 3
        assert "does not match the requested grid" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_controls_line_not_an_object_exits_2(self, tmp_path, capsys):
        speech, controls = self.write_speech_and_controls(tmp_path, 3)
        lines = controls.read_text().splitlines()
        lines[1] = "[0.0, 0.0]"
        controls.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"),
        )
        assert code == 2
        assert f"{controls}:2: expected a JSON object" in stderr
        assert stdout == ""

    def test_bigram_requires_training_flags(self, tmp_path, capsys):
        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        code, _, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--predictor", "bigram",
        )
        assert code == 3
        assert "train-motion" in stderr


@pytest.mark.parametrize("argv", [
    ("encode", "{frames}", "{out}", "--groups", "0"),
    ("ablate", "{frames}", "--schemes", "grfsq", "--groups", "0"),
    ("ablate", "{frames}", "--schemes", ",", "--format", "csv"),
    ("ablate", "{frames}", "--schemes", ","),
    ("ablate", "{frames}", "--schemes", "vq", "--vq-k", "2", "--kmeans-iters", "-1"),
    ("ablate", "{frames}", "--schemes", "rvq", "--rvq-k", "2",
     "--rvq-residuals", "1000000000000"),
    ("ablate", "{frames}", "--schemes", "grfsq", "--residuals", "1000000000000"),
    ("encode", "{frames}", "{out}", "--levels", "5,x"),
    ("ablate", "{frames}", "--schemes", "grfsq", "--holdout", "1.0"),
    ("ablate", "{frames}", "--schemes", "grfsq", "--holdout", "0.001"),  # 0 of 40 frames held out
], ids=["encode-groups-0", "ablate-groups-0", "ablate-no-schemes-csv", "ablate-no-schemes-json",
        "ablate-kmeans-iters-negative", "ablate-rvq-residuals-huge",
        "ablate-grfsq-residuals-huge", "encode-levels-not-integers", "ablate-holdout-1",
        "ablate-holdout-empty-eval"])
def test_bad_arguments_exit_3_without_output(argv, tmp_path, capsys, frames48):
    speech, controls = TestScheduleSim().write_speech_and_controls(tmp_path, 40)
    paths = {"frames": frames48[0], "out": tmp_path / "x.grfq",
             "speech": speech, "controls": controls}
    code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3, stderr
    assert stderr.startswith("error: ")
    assert stdout == ""
    assert not (tmp_path / "x.grfq").exists()


class TestArgvFuzz:
    """Every numeric flag of every command, drawn from a small range or the
    edge values 0, -1, 256 and 10**12, on tiny inputs: each run exits 0, 2, 3
    or 4 and prints either nothing or one JSON document. Ranges stay small,
    and a huge count must be refused before it sizes anything, so no draw
    allocates a large array. --kmeans-iters never takes the huge edge: a
    large iteration count is valid work."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        rng = np.random.default_rng(69)
        # 12 values a frame, so every group count from 1 to 4 divides it
        write_jsonl_frames(root / "frames.jsonl", rng.uniform(-1, 1, size=(24, 12)))
        write_jsonl_frames(root / "calib.jsonl", rng.normal(size=(16, 12)))
        TestScheduleSim().write_speech_and_controls(root, 6, vocab=4)
        return root

    @staticmethod
    def flags(data, **draws) -> list[str]:
        """--name=value for each name=strategy. At most two flags take an edge
        value instead, so most runs get past the checks. A list value is
        joined with commas, and an edge replaces its last entry."""
        edged = data.draw(st.sets(st.sampled_from(sorted(draws)), max_size=2))
        out = []
        for name, strategy in draws.items():
            value = data.draw(strategy)
            if name in edged:
                huge = [] if name == "kmeans_iters" else [10**12]
                edge = data.draw(st.sampled_from([0, -1, 256] + huge))
                value = value[:-1] + [edge] if isinstance(value, list) else edge
            if isinstance(value, list):
                value = ",".join(map(str, value))
            out.append(f"--{name.replace('_', '-')}={value}")
        return out

    @staticmethod
    def run_cli(argv) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if out.getvalue():
            json.loads(out.getvalue())  # exactly one JSON document
        else:
            assert code != 0, argv
        return code

    QUANTIZER = dict(
        groups=st.integers(1, 4), residuals=st.integers(1, 4),
        levels=st.lists(st.integers(2, 5), min_size=1, max_size=4),
        fps=st.integers(1, 30), seed=st.integers(0, 9),
    )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_encode_and_decode(self, inputs, data):
        stream = inputs / "x.grfq"
        stream.unlink(missing_ok=True)
        argv = ["encode", str(inputs / "frames.jsonl"), str(stream)]
        argv += self.flags(data, **self.QUANTIZER)
        argv.append("--packing=" + data.draw(st.sampled_from(["mixed-radix", "fixed-width"])))
        if data.draw(st.booleans()):
            argv.append(f"--calibrate={inputs / 'calib.jsonl'}")
        if self.run_cli(argv) == 0:
            assert self.run_cli(["decode", str(stream), str(inputs / "decoded.jsonl")]) == 0

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ablate(self, inputs, data):
        schemes = data.draw(st.sets(st.sampled_from(["vq", "gvq", "rvq", "grvq", "grfsq"]),
                                    min_size=1))
        argv = ["ablate", str(inputs / "frames.jsonl"), "--schemes=" + ",".join(sorted(schemes))]
        k, groups, residuals = st.integers(1, 8), st.integers(1, 4), st.integers(1, 3)
        argv += self.flags(
            data, **self.QUANTIZER, vq_k=k, gvq_groups=groups, gvq_k=k,
            rvq_residuals=residuals, rvq_k=k, grvq_groups=groups, grvq_residuals=residuals,
            grvq_k=k, kmeans_iters=st.integers(0, 4),
            holdout=st.sampled_from([0.0, 0.25, 0.5]),
        )
        self.run_cli(argv)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_schedule_sim(self, inputs, data):
        argv = [
            "schedule-sim", "--speech", str(inputs / "speech.txt"),
            "--controls", str(inputs / "controls.jsonl"), "--out", str(inputs / "sim.grfq"),
        ]
        argv += self.flags(data, **self.QUANTIZER, vocab=st.integers(4, 8))
        self.run_cli(argv)


class TestDeterminism:
    def test_encode_twice_byte_identical(self, tmp_path, capsys, frames48):
        path, _ = frames48
        out1, out2 = tmp_path / "a.grfq", tmp_path / "b.grfq"
        code1, stdout1, _ = run(capsys, "encode", str(path), str(out1), "--seed", "9")
        code2, stdout2, _ = run(capsys, "encode", str(path), str(out2), "--seed", "9")
        assert code1 == code2 == 0
        assert stdout1.replace(str(out1), "X") == stdout2.replace(str(out2), "X")
        assert out1.read_bytes() == out2.read_bytes()

    def test_ablate_twice_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(66)
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, rng.normal(size=(80, 8)))
        args = (
            "ablate", str(path), "--schemes", "vq,rvq", "--vq-k", "8",
            "--rvq-residuals", "2", "--rvq-k", "8", "--kmeans-iters", "5",
            "--seed", "123", "--groups", "2", "--levels", "5,5,5,5",
        )
        code1, stdout1, _ = run(capsys, *args)
        code2, stdout2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert stdout1 == stdout2

    def test_non_integer_env_seed_exits_3(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.zeros((8, 4)))
        monkeypatch.setenv("GRFQ_SEED", "abc")
        code, stdout, stderr = run(capsys, "ablate", str(path), "--schemes", "vq",
                                   "--vq-k", "2", "--groups", "1", "--levels", "5,5,5,5")
        assert code == 3
        assert "GRFQ_SEED" in stderr
        assert stdout == ""

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(67)
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, rng.normal(size=(50, 8)))
        monkeypatch.setenv("GRFQ_SEED", "321")
        args = ("ablate", str(path), "--schemes", "vq", "--vq-k", "4",
                "--kmeans-iters", "4", "--groups", "2", "--levels", "5,5,5,5")
        code1, stdout1, _ = run(capsys, *args)
        monkeypatch.setenv("GRFQ_SEED", "99")
        code2, stdout2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert json.loads(stdout1)[0]["rmse"] != json.loads(stdout2)[0]["rmse"]
