"""Golden check for `schedule-sim --predictor bigram`.

The inputs come from a fixed integer recurrence (no RNG), and the expected
SHA-256 values of stdout and of the generated stream were recorded with the
per-(t, g) dictionary bigram that the table-gather predictor replaced. Any
change to the predictor's floating-point results moves the NLL figures on
stdout or the argmax tokens in the stream, so both hashes must stay put.
"""

import hashlib

import numpy as np

from grfsq.bitstream import StreamHeader, write_stream
from grfsq.cli import main
from grfsq.fsq import LevelSpec
from grfsq.quantizer import GrfsqConfig

T_TRAIN, T_GEN, G, R, VOCAB = 240, 200, 3, 3, 64
STDOUT_SHA256 = "f07bc7b9b71f092abde6cd214ade6d8659f7ba91bc7a7de8bcab24a13485ff68"
STREAM_SHA256 = "2115c9e79334932adf78aa19af855907437c6196d8a76b72331b25afce9b505e"


def _noise(n: int, seed: int) -> list[int]:
    """A 31-bit linear congruential sequence: same values on every platform."""
    out, x = [], seed
    for _ in range(n):
        x = (1103515245 * x + 12345) % (1 << 31)
        out.append(x >> 16)
    return out


def _write_inputs(tmp_path):
    train_speech = [v % 48 for v in _noise(T_TRAIN, 1)]  # tokens 48..63 stay unseen
    noise = np.array(_noise(T_TRAIN * G * R, 2), dtype=np.int64).reshape(T_TRAIN, G, R)
    tokens = np.empty((T_TRAIN, G, R), dtype=np.int64)
    base = np.array(train_speech)[:, None] * 7 + np.arange(G)[None, :] * 13
    tokens[:, :, 0] = (base + noise[:, :, 0] % 5) % 625
    for r in range(1, R):
        tokens[:, :, r] = (tokens[:, :, r - 1] * 3 + noise[:, :, r] % 4) % 625
    cfg = GrfsqConfig(G, R, LevelSpec((5, 5, 5, 5)), 4)
    with open(tmp_path / "train.grfq", "wb") as fh:
        write_stream(StreamHeader(cfg, T_TRAIN, 25.0), tokens, fh)
    (tmp_path / "train_speech.txt").write_text("".join(f"{v}\n" for v in train_speech))
    speech = [v % VOCAB for v in _noise(T_GEN, 3)]
    (tmp_path / "speech.txt").write_text("".join(f"{v}\n" for v in speech))
    controls = (tmp_path / "controls.jsonl").open("w")
    with controls:
        for t in range(T_GEN):
            controls.write('{"h": [0.0, 0.1, 0.2], "g": [0.0, 0.0], "b": [0.5, %d]}\n' % (t % 2))


def test_bigram_schedule_sim_matches_recorded_hashes(tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main([
        "schedule-sim", "--speech", "speech.txt", "--controls", "controls.jsonl",
        "--out", "gen.grfq", "--groups", str(G), "--residuals", str(R),
        "--vocab", str(VOCAB), "--predictor", "bigram",
        "--train-motion", "train.grfq", "--train-speech", "train_speech.txt",
    ])
    stdout = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256
    assert hashlib.sha256((tmp_path / "gen.grfq").read_bytes()).hexdigest() == STREAM_SHA256
