"""Seeded inputs, command chains and correctness checks for each workload.

A workload is a chain of ``grfsq`` CLI commands (an "op") run on inputs
generated from ``--seed``. The program sees only the generated files, all
referenced by paths relative to the op's working directory so that stdout
(which echoes output paths) is byte-identical across runs and checkouts.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FPS = 25.0
GROUPS = 12
RESIDUALS = 4
CODEBOOK = 625  # default (5, 5, 5, 5) grid

ENCODE_KEYS = {
    "frames", "total_dim", "rmse", "bitrate_bps", "payload_bps", "bits_per_frame",
    "stream_bytes", "utilization", "config", "output",
}
DECODE_KEYS = {"frames", "total_dim", "fps", "output"}
SIM_KEYS = {
    "frames", "groups", "residuals", "classes", "predictor", "per_layer_nll",
    "total_nll", "uniform_nll_per_layer", "output",
}
ABLATE_KEYS = {
    "scheme", "groups", "residuals", "codebook_size", "bitrate_bps", "rmse",
    "utilization_mean_percent",
}
SCHEMES = ("vq", "gvq", "rvq", "grvq", "grfsq")


@dataclass
class Workload:
    """One benchmark workload: its size, its command chain and its outputs."""

    name: str
    frames: int  # frames each op processes; also the fps numerator
    commands: list[tuple[str, list[str]]] = field(default_factory=list)  # (label, argv)
    outputs: list[str] = field(default_factory=list)  # files the op writes


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps([float(v) for v in row]))
            fh.write("\n")


def _read_jsonl(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray([json.loads(line) for line in fh if line.strip()], dtype=np.float64)


def _mean_frame_rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(((a - b) ** 2).mean(axis=1)).mean())


def _header_len(buf: bytes) -> int:
    """Length of a .grfq header, parsed independently of the program."""
    if len(buf) < 8 or buf[:4] != b"GRFQ":
        raise ValueError("not a GRFQ stream")
    groups, d = buf[5], buf[7]
    base = 8 + d + 4 + 4 + 4 + 2
    if len(buf) < base:
        raise ValueError("stream shorter than its header")
    (group_dim,) = struct.unpack_from("<H", buf, 8 + d)
    proj_flag = buf[base - 1]
    return base + (4 * groups * d * group_dim if proj_flag else 0)


# ---------------------------------------------------------------- inputs


# Frames per op. Roundtrips use 1000 rather than 2000 so a run holds more
# ops and its median is steadier.
DEFAULT_FRAMES = {
    "roundtrip-wide": 1000,
    "roundtrip-projected": 1000,
    "generate-bigram": 2000,
    "ablate-holdout": 2000,
}
NAMES = tuple(DEFAULT_FRAMES)


def _roundtrip_commands(extra: list[str]) -> list[tuple[str, list[str]]]:
    return [
        ("encode", ["encode", "frames.jsonl", "out.grfq", *extra, "--recon-out", "recon.jsonl"]),
        ("decode", ["decode", "out.grfq", "decoded.jsonl"]),
    ]


def _train_tokens(rng, speech: np.ndarray) -> np.ndarray:
    """Token tensor whose layers depend on the speech token and on the layer
    below, so a bigram model has structure to learn."""
    T = len(speech)
    out = np.empty((T, GROUPS, RESIDUALS), dtype=np.int64)
    base = speech[:, None] * 7 + np.arange(GROUPS)[None, :] * 13
    out[:, :, 0] = (base + rng.integers(0, 5, (T, GROUPS))) % CODEBOOK
    for r in range(1, RESIDUALS):
        out[:, :, r] = (out[:, :, r - 1] * 3 + rng.integers(0, 4, (T, GROUPS))) % CODEBOOK
    return out


def make_inputs(name: str, work: Path, seed: int, frames: int) -> Workload:
    """Write the workload's seeded input files into ``work``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    wl = Workload(name=name, frames=frames)
    if name == "roundtrip-wide":
        _write_jsonl(work / "frames.jsonl", rng.uniform(-3.0, 3.0, (frames, GROUPS * 4)))
        wl.commands = _roundtrip_commands([])
        wl.outputs = ["out.grfq", "recon.jsonl", "decoded.jsonl"]
    elif name == "roundtrip-projected":
        group_dim, rank = 8, 4
        mixes = [np.linalg.qr(rng.standard_normal((group_dim, rank)))[0] for _ in range(GROUPS)]

        def draw(t):
            z = rng.uniform(-1.0, 1.0, (t, GROUPS, rank))
            return np.concatenate([z[:, g] @ mixes[g].T for g in range(GROUPS)], axis=1)

        _write_jsonl(work / "frames.jsonl", draw(frames))
        _write_jsonl(work / "calib.jsonl", draw(max(frames // 2, 16)))
        wl.commands = _roundtrip_commands(
            ["--calibrate", "calib.jsonl", "--packing", "fixed-width"]
        )
        wl.outputs = ["out.grfq", "recon.jsonl", "decoded.jsonl"]
    elif name == "generate-bigram":
        from grfsq.bitstream import StreamHeader, write_stream
        from grfsq.fsq import LevelSpec
        from grfsq.quantizer import GrfsqConfig

        train_speech = rng.integers(0, 256, frames)
        cfg = GrfsqConfig(GROUPS, RESIDUALS, LevelSpec((5, 5, 5, 5)), 4)
        with open(work / "train.grfq", "wb") as fh:
            write_stream(StreamHeader(cfg, frames, FPS), _train_tokens(rng, train_speech), fh)
        (work / "train_speech.txt").write_text("".join(f"{v}\n" for v in train_speech))
        (work / "speech.txt").write_text(
            "".join(f"{v}\n" for v in rng.integers(0, 256, frames))
        )
        with open(work / "controls.jsonl", "w", encoding="utf-8") as fh:
            for h, g, b in zip(
                rng.uniform(-1, 1, (frames, 3)), rng.uniform(-1, 1, (frames, 2)),
                rng.uniform(0, 1, (frames, 2)),
            ):
                fh.write(json.dumps({"h": h.tolist(), "g": g.tolist(), "b": b.tolist()}) + "\n")
        wl.commands = [(
            "schedule_sim",
            ["schedule-sim", "--speech", "speech.txt", "--controls", "controls.jsonl",
             "--out", "gen.grfq", "--predictor", "bigram", "--train-motion", "train.grfq",
             "--train-speech", "train_speech.txt"],
        )]
        wl.outputs = ["gen.grfq"]
    elif name == "ablate-holdout":
        _write_jsonl(work / "frames.jsonl", rng.uniform(-3.0, 3.0, (frames, GROUPS * 4)))
        # Small explicit codebooks: the default --vq-k 8196 needs >= 8196
        # training frames and takes minutes. Capped so tiny test sizes fit.
        cap = max(1, int(frames * 0.8) // 4)
        k = {"vq": 256, "gvq": 64, "rvq": 64, "grvq": 16}
        k = {s: min(v, cap) for s, v in k.items()}
        wl.commands = [(
            "ablate",
            ["ablate", "frames.jsonl", "--holdout", "0.2", "--seed", "0",
             "--vq-k", str(k["vq"]), "--gvq-groups", "12", "--gvq-k", str(k["gvq"]),
             "--rvq-residuals", "4", "--rvq-k", str(k["rvq"]),
             "--grvq-groups", "12", "--grvq-residuals", "4", "--grvq-k", str(k["grvq"])],
        )]
        wl.outputs = []
    else:
        raise KeyError(name)
    return wl


def input_hashes(work: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(work.iterdir()) if p.is_file()}


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(stdout: bytes, label: str):
    try:
        return json.loads(stdout)
    except ValueError:
        raise CheckFailed(f"{label}: stdout is not valid JSON") from None


def _check_stream(path: Path, frames: int) -> float:
    """read_stream must report the requested frame count and fps. Returns
    payload bits per frame, from the file size and an independent header parse."""
    from grfsq.bitstream import read_stream

    with open(path, "rb") as fh:
        header, tokens = read_stream(fh)
    _require(header.frame_count == frames, f"{path.name}: {header.frame_count} frames, asked {frames}")
    _require(header.fps == FPS, f"{path.name}: fps {header.fps}, asked {FPS}")
    _require(tokens.shape[0] == frames, f"{path.name}: decoded {tokens.shape[0]} blocks")
    buf = path.read_bytes()
    return (len(buf) - _header_len(buf)) * 8 / frames


def check_op(wl: Workload, work: Path, stdouts: dict[str, bytes]) -> dict[str, float]:
    """Check one op's outputs; returns its quality figures or raises CheckFailed."""
    out = {label: _json(stdouts[label], label) for label, _ in wl.commands}
    T = wl.frames
    if wl.name.startswith("roundtrip"):
        enc, dec = out["encode"], out["decode"]
        _require(isinstance(enc, dict) and ENCODE_KEYS <= enc.keys(), "encode: missing keys")
        _require(isinstance(dec, dict) and DECODE_KEYS <= dec.keys(), "decode: missing keys")
        _require(enc["frames"] == T and dec["frames"] == T, "frame count in stdout")
        _require(dec["fps"] == FPS, "decode: fps in stdout")
        stream = work / "out.grfq"
        _require(enc["stream_bytes"] == stream.stat().st_size, "encode: stream_bytes != file size")
        bits = _check_stream(stream, T)
        decoded = (work / "decoded.jsonl").read_bytes()
        _require(decoded == (work / "recon.jsonl").read_bytes(), "decoded frames != --recon-out")
        rmse = _mean_frame_rmse(_read_jsonl(work / "frames.jsonl"), _read_jsonl(work / "decoded.jsonl"))
        _require(math.isclose(rmse, enc["rmse"], rel_tol=1e-9, abs_tol=1e-12), "rmse != encode's rmse")
        return {"loss": rmse, "bits_per_frame": bits}
    if wl.name == "generate-bigram":
        sim = out["schedule_sim"]
        _require(isinstance(sim, dict) and SIM_KEYS <= sim.keys(), "schedule-sim: missing keys")
        _require(sim["frames"] == T and sim["classes"] == CODEBOOK, "schedule-sim: shape")
        total = sim["total_nll"]
        _require(math.isfinite(total) and total > 0, "schedule-sim: total_nll")
        _require(math.isclose(sum(sim["per_layer_nll"]), total, rel_tol=1e-9), "per-layer nll sum")
        # argmax tokens score at least 1/C each, so NLL never exceeds uniform
        _require(total <= RESIDUALS * sim["uniform_nll_per_layer"] * (1 + 1e-12), "nll above uniform")
        bits = _check_stream(work / "gen.grfq", T)
        return {"loss": total / (T * GROUPS * RESIDUALS), "bits_per_frame": bits}
    rows = out["ablate"]
    _require(isinstance(rows, list) and [r.get("scheme") for r in rows] == list(SCHEMES),
             "ablate: expected one row per scheme")
    for row in rows:
        _require(ABLATE_KEYS <= row.keys(), f"ablate {row['scheme']}: missing keys")
        _require(math.isfinite(row["rmse"]) and row["rmse"] > 0, f"ablate {row['scheme']}: rmse")
        _require(0 < row["utilization_mean_percent"] <= 100, f"ablate {row['scheme']}: utilization")
    grfsq_row = rows[-1]
    return {
        "loss": sum(r["rmse"] for r in rows) / len(rows),
        "bits_per_frame": grfsq_row["bitrate_bps"] / FPS,
    }
