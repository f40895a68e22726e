"""Command-line codec: encode/decode motion streams, ablations, generation sims.

Exit codes: 0 success, 2 input/data errors, 3 configuration errors,
4 I/O errors. Metrics go to stdout as JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from array import array

import numpy as np

from . import baselines, bitstream, generation
from .errors import (
    ConfigMismatch,
    CorruptStream,
    DegenerateCalibration,
    InvalidCode,
    InvalidConfig,
    InvalidIndex,
    InvalidInput,
    PredictorContractViolation,
    TooLarge,
)
from .fsq import LevelSpec
from .quantizer import (
    DEFAULT_FPS,
    DEFAULT_GROUPS,
    DEFAULT_LEVELS,
    DEFAULT_RESIDUALS,
    GrfsqConfig,
    _check_fps,
    bitrate,
    calibrate_projections,
    grfsq_dequantize,
    quantize_sequence,
    utilization,
)

_DATA_ERRORS = (InvalidInput, CorruptStream, InvalidIndex, InvalidCode)
_CONFIG_ERRORS = (
    InvalidConfig,
    ConfigMismatch,
    DegenerateCalibration,
    TooLarge,
    PredictorContractViolation,
)


def _load_frames(path: str) -> np.ndarray:
    values = array("d")  # 8 bytes per value, not a list of float objects
    frames, width = 0, 0
    is_csv = str(path).lower().endswith(".csv")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if is_csv:
                try:
                    row = [float(cell) for cell in text.split(",")]
                except ValueError:
                    raise InvalidInput(f"{path}:{lineno}: non-numeric CSV cell") from None
            else:
                try:
                    row = json.loads(text)
                except ValueError as exc:  # also an integer past Python's digit limit
                    raise InvalidInput(f"{path}:{lineno}: invalid JSON: {exc}") from None
                if not isinstance(row, list):
                    raise InvalidInput(f"{path}:{lineno}: expected an array of numbers")
            row = generation._finite_floats(row)
            if row is None:
                raise InvalidInput(f"{path}:{lineno}: expected finite numbers")
            if frames and len(row) != width:
                raise InvalidInput(
                    f"{path}:{lineno}: ragged frame, {len(row)} values vs {width}"
                )
            frames, width = frames + 1, len(row)
            values.extend(row)
    if not frames:
        raise InvalidInput(f"{path}: no frames found")
    return np.frombuffer(values, dtype=np.float64).reshape(frames, width)


def _write_frames(path: str, frames: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in frames:
            fh.write(json.dumps([float(v) for v in row]))
            fh.write("\n")


def _parse_levels(text: str) -> LevelSpec:
    try:
        levels = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidConfig(f"levels must be a comma list of integers, got {text!r}") from None
    return LevelSpec(levels)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    text = os.environ.get("GRFQ_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidConfig(f"GRFQ_SEED must be an integer, got {text!r}") from None


_PACKING_MODES = {name: mode for mode, name in bitstream.PACKING_MODE_NAMES.items()}


def _stream_header(
    args, total_dim: int | None = None, frame_count: int = 0,
    packing: int = bitstream.MODE_MIXED_RADIX, allow_projection: bool = False,
) -> bitstream.StreamHeader:
    """The stream header the CLI flags describe, every stream limit checked.
    Without total_dim each group is one grid vector. With allow_projection, a
    wider group dimension gets identity-truncation placeholders for
    calibration to replace."""
    spec = _parse_levels(args.levels)
    groups = args.groups
    if groups < 1:
        raise InvalidConfig(f"--groups must be positive, got {groups}")
    total_dim = groups * spec.d if total_dim is None else total_dim
    if total_dim % groups:
        raise InvalidConfig(f"frame dimension {total_dim} is not divisible into {groups} groups")
    group_dim = total_dim // groups
    if group_dim == spec.d:
        projections = None
    elif allow_projection and group_dim > spec.d:
        projections = np.broadcast_to(np.eye(spec.d, group_dim), (groups, spec.d, group_dim))
    else:
        raise InvalidConfig(
            f"group dimension {group_dim} does not match grid dimension {spec.d}; "
            "pass --calibrate to fit projections"
        )
    cfg = GrfsqConfig(
        num_groups=groups, num_residuals=args.residuals, level_spec=spec,
        group_dim=group_dim, projections=projections,
    )
    return bitstream.StreamHeader(cfg, frame_count, args.fps, packing_mode=packing)


def cmd_encode(args) -> int:
    frames = _load_frames(args.input)
    # every stream limit is checked before calibrating or quantizing
    header = _stream_header(
        args, frames.shape[1], frames.shape[0], _PACKING_MODES[args.packing],
        allow_projection=bool(args.calibrate),
    )
    cfg = header.config
    if args.calibrate:
        cfg = calibrate_projections(_load_frames(args.calibrate), cfg)
        header = dataclasses.replace(header, config=cfg)
    tokens, recon, report = quantize_sequence(frames, cfg)
    with open(args.output, "wb") as fh:
        payload_bytes = bitstream.write_stream(header, tokens, fh)
    if args.recon_out:
        _write_frames(args.recon_out, recon)

    util = utilization(tokens, cfg)
    bits = bitstream.frame_bits(cfg, header.packing_mode)
    metrics = {
        "frames": int(frames.shape[0]),
        "total_dim": int(cfg.total_dim),
        "rmse": report.mean_rmse,
        "bitrate_bps": bitrate(cfg, args.fps),
        "payload_bps": bits * args.fps,
        "bits_per_frame": bits,
        "stream_bytes": payload_bytes,
        "utilization": {
            "mean_percent": util.mean_percent,
            "per_codebook_percent": util.per_codebook_percent.tolist(),
        },
        "config": {
            "groups": cfg.num_groups,
            "residuals": cfg.num_residuals,
            "levels": list(cfg.level_spec.levels),
            "group_dim": cfg.group_dim,
            "projected": cfg.projections is not None,
            "packing": args.packing,
            "fps": args.fps,
        },
        "output": args.output,
    }
    print(json.dumps(metrics))
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        header, tokens = bitstream.read_stream(fh)
    cfg = header.config
    _write_frames(args.output, grfsq_dequantize(tokens, cfg))
    print(
        json.dumps(
            {
                "frames": int(header.frame_count),
                "total_dim": int(cfg.total_dim),
                "fps": header.fps,
                "output": args.output,
            }
        )
    )
    return 0


def _mean_frame_rmse(original: np.ndarray, recon: np.ndarray) -> float:
    if original.shape[0] == 0:
        return 0.0
    return float(np.sqrt(((original - recon) ** 2).mean(axis=1)).mean())


def _ablate_config(args, scheme: str, seed: int, train: np.ndarray):
    """One ablation row's config, checked against the training frames so a
    bad flag fails before any codebook is fit."""
    if scheme == "grfsq":
        return _stream_header(args, train.shape[1]).config
    groups, residuals, k = {
        "vq": (1, 1, args.vq_k),
        "gvq": (args.gvq_groups, 1, args.gvq_k),
        "rvq": (1, args.rvq_residuals, args.rvq_k),
        "grvq": (args.grvq_groups, args.grvq_residuals, args.grvq_k),
    }[scheme]
    cfg = baselines.BaselineConfig(
        scheme=scheme,
        codebook_size=k,
        groups=groups,
        residuals=residuals,
        kmeans_iters=args.kmeans_iters,
        seed=seed,
    )
    if train.shape[1] % groups:
        raise ConfigMismatch(f"dimension {train.shape[1]} not divisible into {groups} groups")
    if k > train.shape[0]:
        raise InvalidConfig(f"{scheme} k ({k}) exceeds the {train.shape[0]} training frames")
    return cfg


def cmd_ablate(args) -> int:
    frames = _load_frames(args.input)
    schemes = [s.strip().lower() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise InvalidConfig("--schemes names no scheme")
    for scheme in schemes:
        if scheme not in baselines.SCHEMES + ("grfsq",):
            raise InvalidConfig(f"unknown scheme {scheme!r}")
    seed = _resolve_seed(args.seed)
    _check_fps(args.fps)
    if not 0.0 <= args.holdout < 1.0:
        raise InvalidConfig("--holdout must be in [0, 1)")
    split = frames.shape[0] - int(round(args.holdout * frames.shape[0]))
    train = frames[:split] if args.holdout > 0 else frames
    evaluate = frames[split:] if args.holdout > 0 else frames
    if train.shape[0] == 0 or evaluate.shape[0] == 0:
        raise InvalidConfig("holdout split leaves an empty train or eval set")

    # every scheme's flags are checked before the first codebook is fit
    configs = [_ablate_config(args, scheme, seed, train) for scheme in schemes]
    rows = []
    for scheme, cfg in zip(schemes, configs):
        if scheme == "grfsq":
            tokens, recon, _ = quantize_sequence(evaluate, cfg)
            util = utilization(tokens, cfg)
            bps = bitrate(cfg, args.fps)
        else:
            books = baselines.fit_codebooks(train, cfg)
            tokens, recon = baselines.baseline_encode(evaluate, cfg, books)
            util = baselines.baseline_utilization(tokens, cfg)
            bps = baselines.baseline_bitrate(cfg, args.fps)
            if args.save_codebooks:
                os.makedirs(args.save_codebooks, exist_ok=True)
                for g, row_books in enumerate(books):
                    for r, book in enumerate(row_books):
                        name = f"{scheme}_g{g}_r{r}.codebook"
                        with open(os.path.join(args.save_codebooks, name), "wb") as fh:
                            fh.write(baselines.codebook_to_bytes(book))
        groups, residuals = tokens.shape[1:]
        rows.append(
            {
                "scheme": scheme,
                "groups": groups,
                "residuals": residuals,
                "codebook_size": cfg.codebook_size,
                "bitrate_bps": bps,
                "rmse": _mean_frame_rmse(evaluate, recon),
                "utilization_mean_percent": util.mean_percent,
            }
        )

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print(json.dumps(rows))
    return 0


def cmd_schedule_sim(args) -> int:
    # every stream and shape limit is checked before any input is read or generated
    header = _stream_header(args)
    cfg = header.config
    num_classes = cfg.codebook_size
    speech = generation.load_speech_tokens(args.speech, vocab=args.vocab)
    controls = generation.load_controls(args.controls)
    if args.predictor == "uniform":
        predictor = generation.UniformPredictor(num_classes)
    else:
        if not args.train_motion or not args.train_speech:
            raise InvalidConfig(
                "--predictor bigram needs --train-motion and --train-speech"
            )
        with open(args.train_motion, "rb") as fh:
            train_header, train_tokens = bitstream.read_stream(fh)
        train_cfg = train_header.config
        if (train_cfg.num_groups, train_cfg.num_residuals, train_cfg.codebook_size) != (
            cfg.num_groups, cfg.num_residuals, num_classes
        ):
            raise ConfigMismatch("training stream shape does not match the requested grid")
        train_speech = generation.load_speech_tokens(args.train_speech, vocab=args.vocab)
        predictor = generation.BigramPredictor.fit(train_tokens, train_speech, num_classes)

    tokens, nll_per_layer = generation.generate(
        predictor,
        np.zeros(0),  # no global feature: no predictor here reads one
        speech,
        controls,
        num_layers=cfg.num_residuals,
        num_groups=cfg.num_groups,
        with_nll=True,
    )
    header = dataclasses.replace(header, frame_count=len(speech))
    with open(args.out, "wb") as fh:
        bitstream.write_stream(header, tokens, fh)
    uniform_layer_nll = cfg.num_groups * len(speech) * math.log(num_classes)
    print(
        json.dumps(
            {
                "frames": len(speech),
                "groups": cfg.num_groups,
                "residuals": cfg.num_residuals,
                "classes": num_classes,
                "predictor": args.predictor,
                "per_layer_nll": [float(v) for v in nll_per_layer],
                "total_nll": float(nll_per_layer.sum()),
                "uniform_nll_per_layer": uniform_layer_nll,
                "output": args.out,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grfsq", description="Group-residual FSQ motion codec"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quantizer_flags(p):
        p.add_argument("--groups", type=int, default=DEFAULT_GROUPS)
        p.add_argument("--residuals", type=int, default=DEFAULT_RESIDUALS)
        p.add_argument(
            "--levels", default=",".join(str(l) for l in DEFAULT_LEVELS),
            help="comma list of per-dimension level counts",
        )
        p.add_argument("--fps", type=float, default=DEFAULT_FPS)
        p.add_argument("--seed", type=int, default=None)

    enc = sub.add_parser("encode", help="quantize frames into a .grfq stream")
    enc.add_argument("input")
    enc.add_argument("output")
    add_quantizer_flags(enc)
    enc.add_argument(
        "--packing",
        choices=sorted(bitstream.PACKING_MODE_NAMES.values()),
        default=bitstream.PACKING_MODE_NAMES[bitstream.MODE_MIXED_RADIX],
    )
    enc.add_argument("--calibrate", help="frames used to fit per-group projections")
    enc.add_argument("--recon-out", help="also write the quantized reconstructions")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct frames from a .grfq stream")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.set_defaults(func=cmd_decode)

    abl = sub.add_parser("ablate", help="compare quantizer designs on shared data")
    abl.add_argument("input")
    add_quantizer_flags(abl)
    abl.add_argument("--schemes", default="vq,gvq,rvq,grvq,grfsq")
    abl.add_argument("--vq-k", type=int, default=8196)
    abl.add_argument("--gvq-groups", type=int, default=32)
    abl.add_argument("--gvq-k", type=int, default=1024)
    abl.add_argument("--rvq-residuals", type=int, default=32)
    abl.add_argument("--rvq-k", type=int, default=1024)
    abl.add_argument("--grvq-groups", type=int, default=12)
    abl.add_argument("--grvq-residuals", type=int, default=4)
    abl.add_argument("--grvq-k", type=int, default=1024)
    abl.add_argument("--kmeans-iters", type=int, default=8)
    abl.add_argument(
        "--holdout", type=float, default=0.0,
        help="fraction of trailing frames metrics are computed on (fit on the rest)",
    )
    abl.add_argument("--format", choices=("json", "csv"), default="json")
    abl.add_argument("--save-codebooks", help="directory for fitted codebook blobs")
    abl.set_defaults(func=cmd_ablate)

    sim = sub.add_parser("schedule-sim", help="run layered generation with a stub predictor")
    sim.add_argument("--speech", required=True, help="newline-delimited integer tokens")
    sim.add_argument("--controls", required=True, help="JSON-lines h/g/b records")
    sim.add_argument("--out", required=True, help="output .grfq token stream")
    add_quantizer_flags(sim)
    sim.add_argument("--vocab", type=int, default=generation.DEFAULT_SPEECH_VOCAB)
    sim.add_argument("--predictor", choices=("uniform", "bigram"), default="uniform")
    sim.add_argument("--train-motion", help=".grfq stream of target tensors for bigram")
    sim.add_argument("--train-speech", help="speech tokens aligned with --train-motion")
    sim.set_defaults(func=cmd_schedule_sim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
