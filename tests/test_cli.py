import contextlib
import io
import json
import os
import struct
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grfsq import cli
from grfsq.cli import main
from reference_writer import reference_write_frames


def write_jsonl_frames(path, frames):
    with open(path, "w") as fh:
        for row in frames:
            fh.write(json.dumps([float(v) for v in row]) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_constant(name):
    """`json.loads` hook: RFC 8259 has no NaN or Infinity, though Python reads them."""
    raise ValueError(f"{name} is not JSON")


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


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004, 1 / 3, -1e-7, 1e16,
]


class TestWriteFrames:
    """The frame writer formats each distinct value of a block once; its files
    must equal the per-row `json.dumps` reference byte for byte."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writer")

    @staticmethod
    def assert_matches_reference(root, frames):
        cli._write_frames(str(root / "got.jsonl"), frames)
        reference_write_frames(root / "want.jsonl", frames)
        assert (root / "got.jsonl").read_bytes() == (root / "want.jsonl").read_bytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, root, data):
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
        if data.draw(st.booleans()):  # heavy repeats: every value from a small pool
            floats = st.sampled_from(data.draw(st.lists(floats, min_size=1, max_size=4)))
        shape = data.draw(st.tuples(st.integers(0, 12), st.integers(1, 6)))
        frames = data.draw(hnp.arrays(np.float64, shape, elements=floats))
        # a small cell budget puts most draws across several blocks
        with mock.patch.object(cli, "_WRITE_CELLS", data.draw(st.integers(1, 40))):
            self.assert_matches_reference(root, frames)

    @pytest.mark.parametrize("frames", [
        np.array([[0.0], [-0.0], [0.0], [-0.0]]),  # one column, both zeros
        np.array([EDGE_FLOATS]),  # one frame
        np.array([EDGE_FLOATS]).T,  # one value a frame
        np.empty((0, 5)),
        np.empty((3, 0)),
        # more frames than one block at the real budget: repeated and all-distinct
        np.random.default_rng(70).integers(-2, 3, (1500, 96)) / 4.0,
        np.random.default_rng(71).standard_normal((1500, 96)),
        np.random.default_rng(72).standard_normal((3, 70_000)),  # a frame wider than a block
    ], ids=["signed-zeros", "one-frame", "one-value", "no-frames", "no-values",
            "repeats-many-blocks", "distinct-many-blocks", "wide-frames"])
    def test_edge_shapes_match_reference(self, root, frames):
        self.assert_matches_reference(root, frames)

    def test_peak_memory_does_not_grow_with_frames(self, tmp_path):
        rng = np.random.default_rng(73)
        peaks = {}
        for T in (2000, 8000):
            frames = rng.standard_normal((T, 96))  # no value repeats
            tracemalloc.start()
            try:
                cli._write_frames(str(tmp_path / "out.jsonl"), frames)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8000] < 10 << 20
        assert peaks[8000] <= 1.25 * peaks[2000]

    def test_transient_memory_of_repeat_heavy_blocks(self, tmp_path):
        # three blocks of five distinct values: the tables stay tiny, so the
        # peak is the dedup's own arrays (sort order, sorted bit patterns and
        # 32-bit ranks, about 17 bytes a cell)
        frames = np.random.default_rng(1).integers(-2, 3, (3000, 48)) / 4.0
        tracemalloc.start()
        try:
            cli._write_frames(str(tmp_path / "out.jsonl"), frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * cli._WRITE_CELLS


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

    @pytest.mark.parametrize("alias", [
        "same-path", "relative-path", "link-to-the-stream", "link-to-no-file-yet", "hard-link",
    ])
    def test_recon_out_naming_the_stream_exits_3_before_any_output(
        self, tmp_path, capsys, monkeypatch, frames48, alias
    ):
        # the reconstruction, written after the stream, would replace it
        stream = tmp_path / "out.grfq"
        old = b"an earlier stream"
        if alias in ("link-to-the-stream", "hard-link"):
            stream.write_bytes(old)
        recon = {"same-path": stream, "relative-path": os.path.join(os.curdir, "out.grfq")}.get(
            alias, tmp_path / "alias")
        if alias == "hard-link":
            os.link(stream, recon)
        elif alias.startswith("link"):
            os.symlink(stream, recon)
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(
            capsys, "encode", str(frames48[0]), str(stream), "--recon-out", str(recon)
        )
        assert code == 3, stderr
        assert stdout == ""
        assert stderr == f"error: --recon-out names the output stream {str(stream)!r}\n"
        assert (stream.read_bytes() if stream.exists() else None) == (
            old if alias in ("link-to-the-stream", "hard-link") else None
        )

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
        # float() reads both; the CSV format allows neither
        ("sep.csv", "0.0,0.0\n0.0,1_0\n", ":2: non-numeric CSV cell"),
        ("digit.csv", "0.0,0.0\n0.0,\u0661\n", ":2: non-numeric CSV cell"),
    ], ids=["csv-cell", "json-not-array", "only-blank-lines", "csv-digit-separator",
            "csv-non-ascii-digit"])
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

    @pytest.mark.parametrize("argv", [
        ["encode", "{frames}", "{out}", "--levels", "5,5,5,5,5", "--calibrate", "{frames}"],
        ["ablate", "{frames}", "--schemes", "grfsq", "--levels", "5,5,5,5,5"],
        ["ablate", "{frames}", "--schemes", "grfsq", "--groups", "6"],
        ["encode", "{empty}", "{out}"],
    ], ids=["encode-calibrated-narrow-group", "ablate-narrow-group", "ablate-wide-group",
            "empty-rows"])
    def test_group_grid_mismatch_without_calibrate_hint(self, tmp_path, capsys, frames48, argv):
        # --calibrate fits only a group wider than the grid, and only encode has it
        empty = tmp_path / "empty.jsonl"
        empty.write_text("[]\n[]\n")
        out = tmp_path / "x.grfq"
        names = {"frames": frames48[0], "out": out, "empty": empty}
        code, stdout, stderr = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 3
        assert stdout == ""
        assert "does not match grid dimension" in stderr
        assert "--calibrate" not in stderr
        assert not out.exists()

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

    def test_csv_format_is_the_csv_module_output(self, capsys, frames12):
        import csv

        code, stdout, _ = run(capsys, *self.ablate_args(frames12, "--format", "csv"))
        assert code == 0
        code, rows_json, _ = run(capsys, *self.ablate_args(frames12))
        assert code == 0
        rows = json.loads(rows_json)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        assert stdout == buf.getvalue()

    def test_unknown_scheme_exits_3(self, capsys, frames12):
        code, _, stderr = run(capsys, "ablate", str(frames12), "--schemes", "vq,magvit")
        assert code == 3
        assert "magvit" in stderr

    @pytest.mark.parametrize("schemes", ["vq,vq", "grfsq,vq,GRFSQ"])
    def test_repeated_scheme_exits_3_before_fitting(
        self, tmp_path, capsys, monkeypatch, frames12, schemes
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit for a repeated scheme list")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        out_dir = tmp_path / "books"
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, "--schemes", schemes,
                                      "--save-codebooks", str(out_dir))
        )
        assert code == 3, stderr
        assert stdout == ""
        assert "twice" in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("schemes, expected", [("vq,grfsq", 4), ("grfsq", 0)])
    def test_save_codebooks_to_a_file_exits_4_before_fitting(
        self, capsys, monkeypatch, frames12, schemes, expected
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit before its directory was checked")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        before = frames12.read_bytes()
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, "--schemes", schemes,
                                      "--save-codebooks", str(frames12))
        )
        assert code == expected, stderr
        if expected:
            assert stdout == ""
            assert stderr == f"error: [Errno 17] File exists: '{frames12}'\n"
        assert frames12.read_bytes() == before

    @pytest.mark.parametrize("under", ["books", "books/run"])
    def test_save_codebooks_under_a_file_exits_4_before_fitting(
        self, capsys, monkeypatch, frames12, under
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit before its directory was checked")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        before = frames12.read_bytes()
        save = f"{frames12}/{under}"
        # the error line `os.makedirs` gives, which creates nothing under a file
        with pytest.raises(NotADirectoryError) as refused:
            os.makedirs(save, exist_ok=True)
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, "--schemes", "vq,grfsq", "--save-codebooks", save)
        )
        assert code == 4, stderr
        assert stdout == ""
        assert stderr == f"error: {refused.value}\n"
        assert stderr == f"error: [Errno 20] Not a directory: '{frames12}/books'\n"
        assert frames12.read_bytes() == before

    @pytest.mark.parametrize("under", ["books", "books/run", "books/"])
    def test_save_codebooks_under_a_link_to_nothing_exits_4_before_fitting(
        self, tmp_path, capsys, monkeypatch, frames12, under
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit before its directory was checked")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        link = tmp_path / "dangling"
        link.symlink_to(tmp_path / "missing")
        save = f"{link}/{under}"
        # the error line `os.makedirs` gives, which creates nothing behind the link
        with pytest.raises(FileNotFoundError) as refused:
            os.makedirs(save, exist_ok=True)
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, "--schemes", "vq,grfsq", "--save-codebooks", save)
        )
        assert code == 4, stderr
        assert stdout == ""
        assert stderr == f"error: {refused.value}\n"
        assert stderr.startswith(f"error: [Errno 2] No such file or directory: '{link}/books")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "frames12.jsonl"]

    def test_save_codebooks_under_a_self_referencing_link_exits_4_before_fitting(
        self, tmp_path, capsys, monkeypatch, frames12
    ):
        from grfsq import baselines

        def fail(*args, **kwargs):
            raise AssertionError("a codebook was fit before its directory was checked")

        monkeypatch.setattr(baselines, "fit_codebooks", fail)
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        save = f"{loop}/books"
        # the error line `os.makedirs` gives, which creates nothing behind the link
        with pytest.raises(OSError) as refused:
            os.makedirs(save, exist_ok=True)
        code, stdout, stderr = run(
            capsys, *self.ablate_args(frames12, "--schemes", "vq,grfsq", "--save-codebooks", save)
        )
        assert code == 4, stderr
        assert stdout == ""
        assert stderr == f"error: {refused.value}\n"
        assert stderr == f"error: [Errno 40] Too many levels of symbolic links: '{save}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames12.jsonl", "loop"]

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
        ("--schemes", "vq", "--fps", "1e308"),  # a bitrate past float64
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

    def test_save_codebooks_refuses_entries_past_single_precision(self, tmp_path, capsys):
        # group 0's codebook fits float32 and group 1's does not: neither is written
        frames = np.random.default_rng(76).uniform(1, 2, size=(40, 8)) * np.repeat([1.0, 1e39], 4)
        path, out_dir = tmp_path / "huge.jsonl", tmp_path / "books"
        write_jsonl_frames(path, frames)
        code, stdout, stderr = run(
            capsys, "ablate", str(path), "--schemes", "gvq", "--gvq-groups", "2",
            "--gvq-k", "4", "--kmeans-iters", "2", "--save-codebooks", str(out_dir),
        )
        assert code == 2, stderr
        assert stdout == ""
        assert "single precision" in stderr and "Warning" not in stderr
        assert not out_dir.exists()

    def test_holdout_split(self, capsys, frames12):
        code, stdout, _ = run(
            capsys, "ablate", str(frames12), "--schemes", "vq", "--vq-k", "8",
            "--kmeans-iters", "4", "--holdout", "0.25",
            "--groups", "4", "--levels", "5,5,5",
        )
        assert code == 0
        assert json.loads(stdout)[0]["rmse"] > 0


class Interrupted(BaseException):
    """Not an `Exception`: what a worker thread must still hand back."""


class TestAblateFitThreads:
    """`ablate` fits every second baseline scheme on one worker thread and
    the rest on the calling thread, and reports as the one-at-a-time loop did."""

    FLAGS = (
        "--groups", "4", "--levels", "5,5,5", "--vq-k", "16", "--gvq-groups", "4",
        "--gvq-k", "8", "--rvq-residuals", "3", "--rvq-k", "8", "--grvq-groups", "2",
        "--grvq-residuals", "2", "--grvq-k", "8", "--kmeans-iters", "6", "--seed", "5",
    )

    @pytest.fixture
    def frames(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.random.default_rng(63).normal(0, 1.0, size=(120, 12)))
        return path

    @pytest.fixture
    def fits(self, monkeypatch):
        """Patch `fit_codebooks`; returns {scheme: thread} filled as fits run
        and {scheme: exception} of the fits to fail."""
        from grfsq import baselines

        threads, failures = {}, {}
        real_fit = baselines.fit_codebooks

        def fit(train, cfg):
            threads[cfg.scheme] = threading.current_thread()
            if cfg.scheme in failures:
                raise failures[cfg.scheme]
            return real_fit(train, cfg)

        monkeypatch.setattr(baselines, "fit_codebooks", fit)
        return threads, failures

    def ablate(self, capsys, frames, schemes):
        start = threading.active_count()
        code, stdout, stderr = run(capsys, "ablate", str(frames), *self.FLAGS, "--schemes", schemes)
        assert threading.active_count() == start  # the worker was joined
        return code, stdout, stderr

    @pytest.mark.parametrize("schemes, worker", [
        ("vq,gvq,rvq,grvq,grfsq", {"gvq", "grvq"}),
        ("grfsq,grvq,rvq,gvq,vq", {"rvq", "vq"}),
        ("vq,grfsq,gvq", {"gvq"}),
        ("grfsq,rvq", set()),  # one baseline: no thread starts
    ])
    def test_every_second_baseline_fits_on_the_worker(
        self, capsys, fits, frames, schemes, worker
    ):
        threads, _ = fits
        code, stdout, stderr = self.ablate(capsys, frames, schemes)
        assert code == 0, stderr
        assert [row["scheme"] for row in json.loads(stdout)] == schemes.split(",")
        main_thread = threading.main_thread()
        assert {s for s, thread in threads.items() if thread is not main_thread} == worker

    # gvq's fit fails with exit 2, rvq's with 3; whichever comes first in
    # --schemes is reported, whether it ran on the calling thread or the worker
    @pytest.mark.parametrize("schemes", ["gvq,rvq", "rvq,gvq", "vq,gvq,rvq", "vq,rvq,gvq"])
    def test_the_first_failing_scheme_is_reported(self, capsys, fits, frames, schemes):
        from grfsq.errors import InvalidConfig, InvalidInput

        _, failures = fits
        failures.update(gvq=InvalidInput("gvq fit failed"), rvq=InvalidConfig("rvq fit failed"))
        first = next(s for s in schemes.split(",") if s in failures)
        code, stdout, stderr = self.ablate(capsys, frames, schemes)
        assert code == failures[first].exit_code
        assert (stdout, stderr) == ("", f"error: {first} fit failed\n")

    def test_a_worker_base_exception_reaches_the_caller_unprinted(
        self, capsys, fits, frames, monkeypatch
    ):
        _, failures = fits
        failures["gvq"] = Interrupted("stop")
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        start = threading.active_count()
        with pytest.raises(Interrupted, match="stop"):
            main(["ablate", str(frames), *self.FLAGS, "--schemes", "vq,gvq"])
        assert threading.active_count() == start
        assert hooked == [] and capsys.readouterr() == ("", "")


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

    def test_class_count_past_the_cap_exits_3_before_reading_input(
        self, tmp_path, capsys, monkeypatch
    ):
        from grfsq import generation

        def fail(*args, **kwargs):
            raise AssertionError("speech tokens were read before the class count was checked")

        monkeypatch.setattr(generation, "load_speech_tokens", fail)
        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--levels", "255,255,255,255,255",
            "--groups", "1", "--residuals", "1",
        )
        assert code == 3, stderr
        assert "1078203909375 classes exceed the cap of 1000000" in stderr
        assert stdout == ""
        assert not (tmp_path / "x.grfq").exists()

    @pytest.mark.parametrize("vocab", ["0", "-3"])
    def test_vocab_below_1_exits_3_before_reading_input(self, tmp_path, capsys, monkeypatch,
                                                         vocab):
        from grfsq import generation

        def fail(*args, **kwargs):
            raise AssertionError("speech tokens were read before --vocab was checked")

        monkeypatch.setattr(generation, "load_speech_tokens", fail)
        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--vocab", vocab,
        )
        assert code == 3, stderr
        assert f"--vocab must be positive, got {vocab}" in stderr
        assert stdout == ""
        assert not (tmp_path / "x.grfq").exists()

    def test_vocab_past_2_53_exits_3_before_reading_input(self, tmp_path, capsys, monkeypatch):
        from grfsq import generation

        def fail(*args, **kwargs):
            raise AssertionError("speech tokens were read before --vocab was checked")

        monkeypatch.setattr(generation, "load_speech_tokens", fail)
        speech, controls = self.write_speech_and_controls(tmp_path, 5)
        vocab = str(2**53 + 1)  # a float64 context would merge tokens 2**53 and 2**53 + 1
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"), "--vocab", vocab,
        )
        assert code == 3, stderr
        assert f"--vocab must be at most 2**53, got {vocab}" in stderr
        assert stdout == ""
        assert not (tmp_path / "x.grfq").exists()

    def test_no_frames_score_positive_zero(self, tmp_path, capsys):
        speech, controls = tmp_path / "speech.txt", tmp_path / "controls.jsonl"
        speech.write_text("")
        controls.write_text("")
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(speech), "--controls", str(controls),
            "--out", str(tmp_path / "x.grfq"),
        )
        assert code == 0, stderr
        report = json.loads(stdout)
        assert '"per_layer_nll": [0.0, 0.0, 0.0, 0.0]' in stdout
        assert '"total_nll": 0.0' in stdout
        assert report["frames"] == 0

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

    def test_bigram_without_training_flags_exits_3_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "x.grfq"
        code, stdout, stderr = run(
            capsys, "schedule-sim", "--speech", str(tmp_path / "nope.txt"),
            "--controls", str(tmp_path / "nope.jsonl"), "--out", str(out),
            "--predictor", "bigram",
        )
        assert code == 3, stderr
        assert stdout == ""
        assert stderr == "error: --predictor bigram needs --train-motion and --train-speech\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("encode", "{wide}", "{out}", "--calibrate", ""),
    ("encode", "{frames}", "{out}", "--recon-out", ""),
    ("ablate", "{frames}", "--schemes", "vq", "--vq-k", "8", "--save-codebooks", ""),
    ("schedule-sim", "--speech", "{speech}", "--controls", "{controls}", "--out", "{out}",
     "--predictor", "bigram", "--train-motion", "", "--train-speech", "{speech}"),
], ids=["encode-calibrate", "encode-recon-out", "ablate-save-codebooks",
        "schedule-sim-train-motion"])
def test_empty_path_flag_exits_4_as_a_missing_file(tmp_path, capsys, monkeypatch, frames48, argv):
    # an empty path is a path passed, not a flag left out: it fails as `decode "" x.jsonl` does
    from grfsq import baselines

    def fail(*args, **kwargs):
        raise AssertionError("a codebook was fit before its directory was checked")

    monkeypatch.setattr(baselines, "fit_codebooks", fail)
    wide = tmp_path / "wide.jsonl"  # 96-wide frames need --calibrate under the default grid
    write_jsonl_frames(wide, np.random.default_rng(66).uniform(-1, 1, size=(40, 96)))
    speech, controls = TestScheduleSim().write_speech_and_controls(tmp_path, 10)
    out = tmp_path / "x.grfq"
    names = {"frames": frames48[0], "wide": wide, "speech": speech, "controls": controls,
             "out": out}
    code, stdout, stderr = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 4, stderr
    assert stdout == ""
    assert stderr == "error: [Errno 2] No such file or directory: ''\n"
    assert out.exists() == ("--recon-out" in argv)  # the stream is written before the frames


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
    # int() reads both, as levels (55, 5) and (5, 5); a level list allows neither
    ("encode", "{frames}", "{out}", "--groups", "24", "--levels", "5_5,5"),
    ("encode", "{frames}", "{out}", "--groups", "24", "--levels", "\u0665,\u0665"),
], ids=["encode-groups-0", "ablate-groups-0", "ablate-no-schemes-csv", "ablate-no-schemes-json",
        "ablate-kmeans-iters-negative", "ablate-rvq-residuals-huge",
        "ablate-grfsq-residuals-huge", "encode-levels-not-integers", "ablate-holdout-1",
        "ablate-holdout-empty-eval", "encode-levels-digit-separator",
        "encode-levels-non-ascii-digit"])
def test_bad_arguments_exit_3_without_output(argv, tmp_path, capsys, frames48):
    speech, controls = TestScheduleSim().write_speech_and_controls(tmp_path, 40)
    paths = {"frames": frames48[0], "out": tmp_path / "x.grfq",
             "speech": speech, "controls": controls}
    code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3, stderr
    assert stderr.startswith("error: ")
    assert stdout == ""
    assert not (tmp_path / "x.grfq").exists()


@pytest.mark.parametrize("argv, refusal", [
    (("encode", "{frames}", "{out}", "--groups", "\u0664"),
     "--groups: invalid int value: '\u0664'"),
    (("encode", "{frames}", "{out}", "--residuals", "1_0"),
     "--residuals: invalid int value: '1_0'"),
    (("encode", "{frames}", "{out}", "--fps", "2_5"), "--fps: invalid float value: '2_5'"),
    (("ablate", "{frames}", "--schemes", "grfsq", "--seed", "\u0661"),
     "--seed: invalid int value: '\u0661'"),
    (("ablate", "{frames}", "--schemes", "vq", "--vq-k", "1_6"),
     "--vq-k: invalid int value: '1_6'"),
    (("ablate", "{frames}", "--schemes", "grfsq", "--holdout", "0.2_5"),
     "--holdout: invalid float value: '0.2_5'"),
    (("schedule-sim", "--speech", "{speech}", "--controls", "{controls}", "--out", "{out}",
      "--vocab", "6_4"), "--vocab: invalid int value: '6_4'"),
], ids=["groups-non-ascii-digit", "residuals-digit-separator", "fps-digit-separator",
        "seed-non-ascii-digit", "vq-k-digit-separator", "holdout-digit-separator",
        "vocab-digit-separator"])
def test_flag_numerals_follow_the_text_rule(argv, refusal, tmp_path, capsys, frames48):
    # int() and float() read `_` separators and every Unicode decimal digit
    speech, controls = TestScheduleSim().write_speech_and_controls(tmp_path, 40)
    paths = {"frames": frames48[0], "out": tmp_path / "x.grfq",
             "speech": speech, "controls": controls}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"error: argument {refusal}\n")
    assert captured.out == ""
    assert not (tmp_path / "x.grfq").exists()


NESTED = b"[" * 100_000 + b"\n"


@pytest.mark.parametrize("slot, content, where, message", [
    ("frames", b"[1.0]\n[2.0\xff]\n", 2, "not UTF-8 text"),
    # lines counted as text mode counts them: a lone \r ends one too
    ("frames", b"[1.0]\r[2.0]\r\n\n[\xff]\n", 4, "not UTF-8 text"),
    ("frames", b"[1.0]\n" * 3000 + b"[\xfe]\n", 3001, "not UTF-8 text"),  # past one decoded chunk
    ("speech", b"1\n2\n\xff\n", 3, "not UTF-8 text"),
    ("controls", b"\xff\n", 1, "not UTF-8 text"),
    ("frames", NESTED, 1, "invalid JSON"),
    ("controls", NESTED, 1, "invalid JSON"),
    # the first bad line is reported, whatever its fault
    ("frames", b"[1.0]\n[oops\n[\xff]\n", 2, "invalid JSON"),
    ("speech", b"1\nx\n\xff\n", 2, "not an integer token"),
    # int() reads both; a speech-token file allows neither
    ("speech", b"1\n1_000\n", 2, "not an integer token"),
    ("speech", "1\n\u0663\n".encode(), 2, "not an integer token"),
], ids=["frames-ff", "frames-cr-lines", "frames-late-byte", "speech-ff", "controls-ff",
        "frames-nested", "controls-nested", "frames-json-before-ff", "speech-token-before-ff",
        "speech-digit-separator", "speech-non-ascii-digit"])
def test_bad_text_input_exits_2_naming_the_line(tmp_path, capsys, slot, content, where, message):
    speech, controls = TestScheduleSim().write_speech_and_controls(tmp_path, 3)
    paths = {"frames": tmp_path / "frames.jsonl", "speech": speech, "controls": controls}
    paths[slot].write_bytes(content)
    if slot == "frames":
        argv = ["encode", str(paths["frames"]), str(tmp_path / "x.grfq")]
    else:
        argv = ["schedule-sim", "--speech", str(speech), "--controls", str(controls),
                "--out", str(tmp_path / "x.grfq")]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2, stderr
    assert stderr.startswith(f"error: {paths[slot]}:{where}: {message}")
    assert stdout == ""
    assert not (tmp_path / "x.grfq").exists()


@pytest.mark.parametrize("schemes", ["vq", "rvq"])
def test_centroid_norm_overflow_without_lloyd_exits_2(tmp_path, capsys, schemes):
    # with --kmeans-iters 0 a one-stage fit assigns nothing: encoding refuses the centroids
    path = tmp_path / "frames.jsonl"
    write_jsonl_frames(path, np.full((40, 12), 1e160))
    code, stdout, stderr = run(
        capsys, "ablate", str(path), "--schemes", schemes, "--vq-k", "4", "--rvq-k", "4",
        "--rvq-residuals", "2", "--kmeans-iters", "0",
    )
    assert code == 2, stderr
    assert stdout == ""
    assert stderr == "error: frames too large: k-means distances overflow float64\n"


@pytest.mark.parametrize("offset, scale, argv", [
    # k-means++ distances overflow float64: once a NaN draw probability
    (0.0, 10.0 ** np.linspace(160, 200, 4), ["ablate", "{frames}", "--schemes", "gvq",
                                             "--gvq-groups", "1", "--gvq-k", "4"]),
    # the reconstruction error overflows float64: once "rmse": Infinity
    (0.0, np.full(48, 1e160), ["encode", "{frames}", "{out}"]),
    (0.0, np.full(48, 1e160), ["ablate", "{frames}", "--schemes", "grfsq"]),
    # k-means++ distances stay finite, but the centroid norms in the Lloyd
    # assignment overflow: once labels from inf - inf
    (1e160, np.full(48, 1e145), ["ablate", "{frames}", "--schemes", "vq,rvq", "--vq-k", "4",
                                 "--rvq-k", "4", "--rvq-residuals", "2"]),
    # the calibration covariance overflows float64: once a LinAlgError traceback
    (0.0, np.full(96, 1e200), ["encode", "{frames}", "{out}", "--calibrate", "{frames}"]),
    # the down-projection of a frame overflows float64: once a RuntimeWarning
    # before the refusal, raised from main under -W error
    (0.0, np.full(16, 1.5e308), ["encode", "{frames}", "{out}", "--groups", "2",
                                 "--levels", "5,5,5,5", "--calibrate", "{calib}"]),
], ids=["ablate-kmeans", "encode", "ablate-grfsq", "ablate-lloyd", "encode-calibrate",
        "encode-projected"])
def test_frames_too_large_for_float64_exit_2(tmp_path, capsys, offset, scale, argv):
    rng = np.random.default_rng(68)
    frames = offset + rng.uniform(-1, 1, (40, len(scale))) * scale
    paths = {"frames": tmp_path / "frames.jsonl", "calib": tmp_path / "calib.jsonl",
             "out": tmp_path / "x.grfq"}
    write_jsonl_frames(paths["frames"], frames)
    write_jsonl_frames(paths["calib"], rng.normal(size=(40, len(scale))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning on stderr is a failure too
        code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2, stderr
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert stdout == ""
    assert not paths["out"].exists()


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
            json.loads(out.getvalue(), parse_constant=refuse_constant)  # one JSON document
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


HOSTILE_FRAGMENTS = [
    b"\xff", b"\xef\xbb\xbf", b"\x00", b"\r", b"NaN", b"Infinity", b"1e400", b"7" * 5000,
    b"true", b"[" * 100_000, b"\n[" + b"0.5, " * 200_000 + b"0.5]\n",  # last: a 1 MB line
]


class TestInputFileFuzz:
    """Every text-input slot of encode, ablate and schedule-sim, its small
    valid file mutated by byte set, flip, insert, delete and truncate, or
    with a hostile fragment inserted: each run exits 0, 2, 3 or 4, prints
    either nothing or one JSON document, and leaves no traceback on stderr."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        from grfsq.bitstream import StreamHeader, write_stream
        from grfsq.fsq import LevelSpec
        from grfsq.quantizer import GrfsqConfig

        root = tmp_path_factory.mktemp("files")
        rng = np.random.default_rng(74)
        frames = rng.uniform(-1, 1, size=(12, 12))
        write_jsonl_frames(root / "frames.jsonl", frames)
        (root / "frames.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in frames.tolist())
        )
        write_jsonl_frames(root / "calib.jsonl", rng.normal(size=(8, 12)))
        TestScheduleSim().write_speech_and_controls(root, 6, vocab=4)
        header = StreamHeader(GrfsqConfig(2, 2, LevelSpec((3, 3)), 2), frame_count=6, fps=25.0)
        with open(root / "train.grfq", "wb") as fh:
            write_stream(header, rng.integers(0, 9, size=(6, 2, 2)), fh)
        return root

    @staticmethod
    def sim(speech, controls):
        return ["schedule-sim", "--speech", speech, "--controls", controls, "--out", "{out.grfq}",
                "--groups", "2", "--residuals", "2", "--levels", "3,3", "--vocab", "4"]

    ABLATE = ["ablate", "{mutated}", "--schemes", "vq,rvq,grfsq", "--vq-k", "2", "--rvq-k", "2",
              "--rvq-residuals", "2", "--kmeans-iters", "2", "--groups", "3"]
    # slot: (the file mutated, argv naming each file as {file name})
    SLOTS = {
        "encode-jsonl": ("frames.jsonl", ["encode", "{mutated}", "{out.grfq}", "--groups", "3"]),
        "encode-csv": ("frames.csv", ["encode", "{mutated}", "{out.grfq}", "--groups", "3"]),
        "encode-calibrate": ("calib.jsonl", ["encode", "{frames.jsonl}", "{out.grfq}",
                                             "--groups", "2", "--calibrate", "{mutated}"]),
        "ablate-jsonl": ("frames.jsonl", ABLATE),
        "ablate-csv": ("frames.csv", ABLATE),
        "sim-speech": ("speech.txt", sim("{mutated}", "{controls.jsonl}")),
        "sim-controls": ("controls.jsonl", sim("{speech.txt}", "{mutated}")),
        "sim-train-speech": ("speech.txt", sim("{speech.txt}", "{controls.jsonl}") + [
            "--predictor", "bigram", "--train-motion", "{train.grfq}", "--train-speech", "{mutated}",
        ]),
    }

    @staticmethod
    def mutate(data, content: bytes) -> bytes:
        buf = bytearray(content)
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["set", "flip", "insert", "delete", "truncate", "hostile"]))
            at = data.draw(st.integers(0, len(buf)))
            if op in ("set", "flip") and at < len(buf):
                buf[at] = data.draw(st.integers(0, 255)) if op == "set" else (
                    buf[at] ^ 1 << data.draw(st.integers(0, 7)))
            elif op == "insert":
                buf[at:at] = data.draw(st.binary(min_size=1, max_size=4))
            elif op == "delete":
                del buf[at : at + data.draw(st.integers(1, 8))]
            elif op == "truncate":
                del buf[at:]
            elif op == "hostile":
                buf[at:at] = data.draw(st.sampled_from(HOSTILE_FRAGMENTS))
        return bytes(buf)

    @pytest.mark.parametrize("slot", sorted(SLOTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_file(self, inputs, slot, data):
        name, argv = self.SLOTS[slot]
        mutated = inputs / ("mutated" + name[name.index("."):])  # the loader reads the suffix
        mutated.write_bytes(self.mutate(data, (inputs / name).read_bytes()))
        (inputs / "out.grfq").unlink(missing_ok=True)
        paths = {p.name: p for p in inputs.iterdir()}
        paths.update({"mutated": mutated, "out.grfq": inputs / "out.grfq"})
        argv = [str(paths[arg[1:-1]]) if arg.startswith("{") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=refuse_constant)  # one JSON document
        else:
            assert code != 0, argv


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

    @pytest.mark.parametrize("env", ["1_0", "\u0661"],
                             ids=["digit-separator", "non-ascii-digit"])
    def test_env_seed_numerals_exit_3(self, tmp_path, capsys, monkeypatch, env):
        # int() reads both, as seeds 10 and 1
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.zeros((8, 4)))
        monkeypatch.setenv("GRFQ_SEED", env)
        code, stdout, stderr = run(capsys, "ablate", str(path), "--schemes", "grfsq",
                                   "--groups", "1", "--levels", "5,5,5,5")
        assert code == 3
        assert stderr == f"error: GRFQ_SEED must be an integer, got {env!r}\n"
        assert stdout == ""

    @pytest.mark.parametrize("flag, env", [(("--seed", "-1"), "0"), ((), "-7")],
                             ids=["flag", "env"])
    def test_negative_seed_exits_3_with_the_grfsq_row_alone(
        self, tmp_path, capsys, monkeypatch, flag, env
    ):
        path = tmp_path / "frames.jsonl"
        write_jsonl_frames(path, np.zeros((8, 4)))
        monkeypatch.setenv("GRFQ_SEED", env)
        code, stdout, stderr = run(capsys, "ablate", str(path), "--schemes", "grfsq", *flag,
                                   "--groups", "1", "--levels", "5,5,5,5")
        assert code == 3
        assert "seed must be >= 0" in stderr
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
