"""Golden check for `encode --recon-out` followed by `decode`.

Two modes: plain mixed-radix packing on 48-dim frames, and a PCA-calibrated
96-dim config with fixed-width packing. The frames come from a fixed integer
recurrence (no RNG), and the expected SHA-256 values of both stdouts, the
stream, the reconstructions and the decoded frames were recorded with the
per-frame packer that the whole-payload packer replaced. Any change to the
stream bytes or to the decoded values moves one of these hashes.
"""

import hashlib
import json

import pytest

from grfsq.cli import main

T = 300  # neither a multiple of the quantizer's batch nor of a byte


def _noise(n: int, seed: int) -> list[int]:
    """A 31-bit linear congruential sequence: same values on every platform."""
    out, x = [], seed
    for _ in range(n):
        x = (1103515245 * x + 12345) % (1 << 31)
        out.append(x >> 16)
    return out


def _write_jsonl(path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _wide_frames(n: int, seed: int) -> list[list[float]]:
    """n × 48 values in [-3, 3], in steps of 0.001."""
    vals = [(v % 6001 - 3000) / 1000 for v in _noise(n * 48, seed)]
    return [vals[i * 48 : (i + 1) * 48] for i in range(n)]


def _projected_frames(n: int, seed: int) -> list[list[float]]:
    """n × 96 values: 12 groups of 8, each a fixed integer mix of 4 sources
    in [-1, 1] with distinct scales, so the PCA axes are well separated."""
    src = [(v % 2001 - 1000) / 1000 for v in _noise(n * 48, seed)]
    rows = []
    for t in range(n):
        row = []
        for g in range(12):
            s = src[t * 48 + g * 4 : t * 48 + g * 4 + 4]
            for j in range(8):
                row.append(sum(((j * 5 + k * 3 + g) % 7 - 3) * s[k] / (k + 1) for k in range(4)))
        rows.append(row)
    return rows


MODES = {
    "mixed-radix": (
        [],
        {
            "encode_stdout": "19f9a15af01fcd33c49deb13af658bcd14376c816e6cd7d905996229d246b216",
            "stream": "cc751e251192c8dfe8f1345e0b1959ce6ff522d305107869cbb94b837828e35c",
            "recon": "1a336ab37d0069d66e46c2c5877fa17272466882459204f0a1454c72c1f5f8b4",
            "decode_stdout": "459667fc1cb2e8c90c510fae18beb05f206090efc2069b9c10561e67372eef02",
            "decoded": "1a336ab37d0069d66e46c2c5877fa17272466882459204f0a1454c72c1f5f8b4",
        },
    ),
    "calibrated-fixed-width": (
        ["--calibrate", "calib.jsonl", "--packing", "fixed-width"],
        {
            "encode_stdout": "06fe0c4fc862b48516b088002fc702885c482ad298bb1ec9ff7009b9bd90358d",
            "stream": "9f1c379ae052369b0ba10e56c2cc013e89b49675c8dfc89272fa3d07e0da621d",
            "recon": "c255375424da75ee58d48ccaa80ef82ef1d915886f18ce3340e27cc5c07cea16",
            "decode_stdout": "39694a7e21ba3ec168e5543ae5fd25b2a7e6b6270eb0e8efb9987e8329e5b9dc",
            "decoded": "c255375424da75ee58d48ccaa80ef82ef1d915886f18ce3340e27cc5c07cea16",
        },
    ),
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_roundtrip_matches_recorded_hashes(mode, tmp_path, monkeypatch, capsys):
    flags, expected = MODES[mode]
    if flags:
        _write_jsonl(tmp_path / "frames.jsonl", _projected_frames(T, 11))
        _write_jsonl(tmp_path / "calib.jsonl", _projected_frames(200, 12))
    else:
        _write_jsonl(tmp_path / "frames.jsonl", _wide_frames(T, 10))
    monkeypatch.chdir(tmp_path)

    assert main(["encode", "frames.jsonl", "out.grfq", "--recon-out", "recon.jsonl", *flags]) == 0
    encode_stdout = capsys.readouterr().out
    assert main(["decode", "out.grfq", "decoded.jsonl"]) == 0
    decode_stdout = capsys.readouterr().out

    got = {
        "encode_stdout": _sha(encode_stdout),
        "stream": _sha((tmp_path / "out.grfq").read_bytes()),
        "recon": _sha((tmp_path / "recon.jsonl").read_bytes()),
        "decode_stdout": _sha(decode_stdout),
        "decoded": _sha((tmp_path / "decoded.jsonl").read_bytes()),
    }
    assert got == expected
