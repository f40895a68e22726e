"""Golden check for `ablate` over all five schemes with a holdout split.

The frames come from a fixed integer recurrence (no RNG). The expected
SHA-256 values of the JSON and CSV stdouts and of every saved codebook blob
were recorded with the per-group k-means fit and encode loops that the
grouped path replaced. Any change to a fitted centroid, a token or an RMSE
figure moves one of these hashes.
"""

import hashlib
import json

from grfsq.cli import main

T, D = 500, 32  # 400 training rows: more than one row block of the 8-group assign

FLAGS = [
    "--holdout", "0.2", "--seed", "4", "--groups", "8",
    "--vq-k", "32", "--gvq-groups", "8", "--gvq-k", "16",
    "--rvq-residuals", "3", "--rvq-k", "16",
    "--grvq-groups", "8", "--grvq-residuals", "2", "--grvq-k", "8",
]
JSON_SHA256 = "eb30a50f1b8265200c5c5a958ae38511d0618f9f21214033d526f52d5357baaa"
CSV_SHA256 = "199d672611042081238fdcff52e3f80e77ac1dd4eb78dd76aa60778f10cd175f"
CODEBOOK_SHA256 = {
    "grvq_g0_r0.codebook": "89382033e5437de1ec19f41bcf6e78fa241300bc5167d6208185b92686922a43",
    "grvq_g0_r1.codebook": "499bfe0f04d353c361959e7b88791896b0d4851eb87259100c912d7ccbd3468d",
    "grvq_g1_r0.codebook": "1645a8c289eb0cee7ac4cdae764f91144dd825e87c0cc342eeb65156ce607f5a",
    "grvq_g1_r1.codebook": "b5393363d595c1ce36aa09c277bf436f5a89769d073553599f5a9e0d5bfdc662",
    "grvq_g2_r0.codebook": "f45a0ee38e1d204e53c260f52a7a8a04ffa80b57079ce76b06c902d2ae78bd68",
    "grvq_g2_r1.codebook": "3c38af8e325d9a80cce49e88a00ba20535115498caf1c40075847172be8adbe0",
    "grvq_g3_r0.codebook": "8ebe1eeec6a9447f5e52aca8bcab2fd4b699d2da5611700116e5de9d187d2318",
    "grvq_g3_r1.codebook": "71bf8d42e9eb3821fde898fafbac2e640a1a90bffd40a85e0043528dbe669e57",
    "grvq_g4_r0.codebook": "b10c134b57a4f3fe12f0e0272f81a55d76d50da1e0fea2e4a2a38e79495bbf05",
    "grvq_g4_r1.codebook": "116a0a86d3b6e1a29edbd768f919559ca5a7f29838a91ecd341104c026ea00db",
    "grvq_g5_r0.codebook": "25e423f3d66e8a98731d597d207b04b8ca1f69021ab2951eaeaa53d065715043",
    "grvq_g5_r1.codebook": "131d368992151cd6372b355aa2dfe83f5644ad1847040a97eb71c710b69edbc4",
    "grvq_g6_r0.codebook": "761f10a80dd076085b511507cd5339e5762c2b6a348b6ca649ffb88f2fc0268a",
    "grvq_g6_r1.codebook": "b2d20fce720f74c271936056c18093283e46a9c339498d3b48256b39c37e5203",
    "grvq_g7_r0.codebook": "56ce57e24db6ea8a738733cbc21ffc40f60e5f6685aa04a95261756ce944ef4e",
    "grvq_g7_r1.codebook": "01a8c824c6b0e87038dfcbe891932a8be701209aae5f8708a7b6f71a7ddbe45b",
    "gvq_g0_r0.codebook": "f26f5ce6930f8c8d08361d5b38702e944f98738da813b3b276af7f0b995e2ec5",
    "gvq_g1_r0.codebook": "c90c3e227a005f63f874528d923cec9c25ab6f972182cc8544cab4ed42c1637a",
    "gvq_g2_r0.codebook": "37b3105713afb263f6d41547d0e6b8ecb0f34adf9496e7a1cf3391cfb573d977",
    "gvq_g3_r0.codebook": "8025a071a7c4c83951e7d7b921625b402feed072479c7d02674af37ec1084501",
    "gvq_g4_r0.codebook": "00725bb5d8e33ea40b5fc0b61bc356104ac835d9cf962d57d9fe3151c4e9ef38",
    "gvq_g5_r0.codebook": "cc1a7a4c709ccf98b5a93d87443177c57dc6a09cf02b844909abe04c382363d2",
    "gvq_g6_r0.codebook": "4eb0ec728cbfcc980acb7e2754069cd8dea9188119242035bbd061cf9ac05888",
    "gvq_g7_r0.codebook": "73654bece992f0cb0f443f05ee151a0100ab03157cd999acc918b7295ab37a15",
    "rvq_g0_r0.codebook": "928c34833e0df586a25a1f452fae581e635d6bd36bf5a74ce3aa461739bc51f1",
    "rvq_g0_r1.codebook": "a69528fa38192768d9150d3614d3948f0ad7ca98962ad6b1f0ad200bbae1fd10",
    "rvq_g0_r2.codebook": "b84587a8d8c2e8fc8d613a5951c0374bb1d8d0fe7213a16b02909363f382383d",
    "vq_g0_r0.codebook": "77ab3a796ed734516ced4a03a4bf3e571f496b00255fa02239de2a9e75a05dd7",
}


def _noise(n: int, seed: int) -> list[int]:
    """A 31-bit linear congruential sequence: same values on every platform."""
    out, x = [], seed
    for _ in range(n):
        x = (1103515245 * x + 12345) % (1 << 31)
        out.append(x >> 16)
    return out


def _frames() -> list[list[float]]:
    """T × D values in [-3, 3], in steps of 0.01."""
    vals = [(v % 601 - 300) / 100 for v in _noise(T * D, 21)]
    return [vals[i * D : (i + 1) * D] for i in range(T)]


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def test_ablate_matches_recorded_hashes(tmp_path, monkeypatch, capsys):
    (tmp_path / "frames.jsonl").write_text("".join(json.dumps(r) + "\n" for r in _frames()))
    monkeypatch.chdir(tmp_path)

    assert main(["ablate", "frames.jsonl", *FLAGS, "--save-codebooks", "books"]) == 0
    json_stdout = capsys.readouterr().out
    assert main(["ablate", "frames.jsonl", *FLAGS, "--format", "csv"]) == 0
    csv_stdout = capsys.readouterr().out

    books = {p.name: _sha(p.read_bytes()) for p in sorted((tmp_path / "books").iterdir())}
    assert len(json.loads(json_stdout)) == 5
    assert (_sha(json_stdout), _sha(csv_stdout)) == (JSON_SHA256, CSV_SHA256)
    assert books == CODEBOOK_SHA256
