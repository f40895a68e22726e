"""Command-line codec: encode/decode motion streams, ablations, generation sims.

Exit codes: 0 success; 2 a usage error or a data error (`InvalidInput`, `CorruptStream`,
`InvalidIndex`, `InvalidCode`); 3 a configuration error (`InvalidConfig`, `ConfigMismatch`,
`DegenerateCalibration`, `TooLarge`, `PredictorContractViolation`); 4 an OSError, such as a
failed write of stdout or stderr. Each error class declares its code as `exit_code`. Metrics
and --help go to stdout; every diagnostic goes to stderr through `_diagnose`, or nowhere
when the process has no stderr.

Each command imports only what it runs: `ablate` imports `baselines` and
`schedule-sim` imports `generation` when called, so starting the CLI (and
`--help`, `encode` and `decode`) compiles neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import threading
from array import array

import numpy as np

from . import bitstream
from ._text import (
    DEFAULT_SPEECH_VOCAB, MAX_SPEECH_VOCAB, _finite_floats, _json_line, _lines, _numerals,
)
from .errors import ConfigMismatch, GrfsqError, InvalidConfig, InvalidInput, TooLarge
from .fsq import ENUMERATION_CAP, LevelSpec, _checked_int
from .quantizer import (
    DEFAULT_FPS,
    DEFAULT_GROUPS,
    DEFAULT_LEVELS,
    DEFAULT_RESIDUALS,
    GrfsqConfig,
    _frame_rmse,
    bitrate,
    calibrate_projections,
    grfsq_dequantize,
    quantize_sequence,
    utilization,
)

_WRITE_CELLS = 1 << 16  # frame values per formatting table while writing frames


def _load_frames(path: str) -> np.ndarray:
    values = array("d")  # 8 bytes per value, not a list of float objects
    frames, width = 0, 0
    is_csv = str(path).lower().endswith(".csv")
    for lineno, text in _lines(path):
        if is_csv:
            try:
                row = [float(cell) for cell in _numerals(text).split(",")]
            except ValueError:
                raise InvalidInput(f"{path}:{lineno}: non-numeric CSV cell") from None
        else:
            row = _json_line(path, lineno, text)
            if not isinstance(row, list):
                raise InvalidInput(f"{path}:{lineno}: expected an array of numbers")
        row = _finite_floats(row)
        if row is None:
            raise InvalidInput(f"{path}:{lineno}: expected finite numbers")
        if frames and len(row) != width:
            raise InvalidInput(f"{path}:{lineno}: ragged frame, {len(row)} values vs {width}")
        frames, width = frames + 1, len(row)
        values.extend(row)
    if not frames:
        raise InvalidInput(f"{path}: no frames found")
    return np.frombuffer(values, dtype=np.float64).reshape(frames, width)


def _write_frames(path: str, frames: np.ndarray) -> None:
    """Write finite (T, D) frames as JSON lines, one array per frame, each
    value in its shortest round-trip text: the bytes `json.dumps` gives.

    Decoded frames repeat a few grid-derived values, so rows go in blocks of
    about `_WRITE_CELLS` values, each block formats each of its distinct
    float64 values once (none the block before it formatted) and builds its
    lines from that table."""
    step = max(1, _WRITE_CELLS // max(frames.shape[1], 1))
    table = np.zeros(1, np.uint64), np.array([b"0.0"], "S24")  # 0.0 (bits 0): never empty
    with open(path, "wb") as fh:
        for s in range(0, len(frames), step):
            block = np.ascontiguousarray(frames[s : s + step], dtype=np.float64)
            table = _write_block(fh, block, *table)


def _write_block(fh, block: np.ndarray, old_bits: np.ndarray, old_text: np.ndarray):
    """Write one block's lines; return its table, (sorted distinct bit
    patterns, their texts), for the next block to reuse."""
    # bit patterns, so that -0.0 and 0.0 stay apart
    bits, index = np.unique(block.view(np.uint64), return_inverse=True)
    at = np.searchsorted(old_bits, bits).clip(max=len(old_bits) - 1)
    text = old_text[at]
    fresh = old_bits[at] != bits
    # float.__repr__ is what json.dumps writes for a finite float, and at
    # most 24 ASCII characters: sign, 17 digits, point, e-308
    values = bits[fresh].view(np.float64)
    text[fresh] = np.fromiter(map(float.__repr__, values), "S24", len(values))
    for row in index.reshape(block.shape):
        fh.write(b"[" + b", ".join(text[row].tolist()) + b"]\n")
    return bits, text


def _parse_levels(text: str) -> LevelSpec:
    try:
        levels = tuple(int(part) for part in _numerals(text).split(","))
    except ValueError:
        raise InvalidConfig(f"levels must be a comma list of integers, got {text!r}") from None
    return LevelSpec(levels)


def _resolve_seed(value) -> int:
    """--seed, else GRFQ_SEED, else 0: a non-negative integer for every scheme."""
    if value is None:
        text = os.environ.get("GRFQ_SEED", "0")
        try:
            value = int(_numerals(text))
        except ValueError:
            raise InvalidConfig(f"GRFQ_SEED must be an integer, got {text!r}") from None
    return _checked_int(value, "seed", InvalidConfig)


def _flag_type(parse):
    """`parse` (int or float) behind `_numerals`, as an argparse type: a
    refused flag value is argparse's usage error, named by `parse`'s name."""

    def flag(text: str):
        return parse(_numerals(text))

    flag.__name__ = parse.__name__
    return flag


_INT, _FLOAT = _flag_type(int), _flag_type(float)
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
    else:  # only encode has --calibrate, here not passed, and it fits only a wider group
        hint = group_dim > spec.d and hasattr(args, "calibrate")
        raise InvalidConfig(
            f"group dimension {group_dim} does not match grid dimension {spec.d}"
            + ("; pass --calibrate to fit projections" if hint else "")
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
        allow_projection=args.calibrate is not None,
    )
    cfg = header.config
    if args.calibrate is not None:
        cfg = calibrate_projections(_load_frames(args.calibrate), cfg)
        header = dataclasses.replace(header, config=cfg)
    tokens, recon, report = quantize_sequence(frames, cfg)
    with open(args.output, "wb") as fh:
        payload_bytes = bitstream.write_stream(header, tokens, fh)
    if args.recon_out is not None:
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


def _ablate_config(args, scheme: str, seed: int, train: np.ndarray):
    """One ablation row's config and bitrate, checked against the training
    frames so a bad flag fails before any codebook is fit."""
    from . import baselines

    if scheme == "grfsq":
        cfg = _stream_header(args, train.shape[1]).config
        return cfg, bitrate(cfg, args.fps)
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
    return cfg, baselines.baseline_bitrate(cfg, args.fps)


def _fit_baselines(schemes: list[str], configs: list, train: np.ndarray) -> list:
    """Each scheme's fitted codebooks, or the exception its fit raised, or
    None (grfsq, or a fit never run), in scheme order.

    Fits run two at a time: a worker thread fits every second baseline
    scheme, the calling thread the rest, since numpy releases the GIL in its
    loops and products. Each thread stops at its first failure; the fits it
    skips come after that scheme, so the caller, taking results in scheme
    order, raises the failure the one-at-a-time loop would have raised. The
    worker keeps any exception, so it prints nothing; the calling thread
    lets an interrupt through."""
    from . import baselines

    fitted = [None] * len(schemes)

    def fit(positions, keep):
        for i in positions:
            try:
                fitted[i] = baselines.fit_codebooks(train, configs[i][0])
            except keep as exc:
                fitted[i] = exc
                return

    positions = [i for i, scheme in enumerate(schemes) if scheme != "grfsq"]
    worker = None
    if len(positions) > 1:
        worker = threading.Thread(target=fit, args=(positions[1::2], BaseException))
        worker.start()
    try:
        fit(positions[::2], Exception)
    finally:
        if worker is not None:
            worker.join()
    return fitted


def cmd_ablate(args) -> int:
    from . import baselines  # only ablate runs the k-means baselines

    frames = _load_frames(args.input)
    schemes = [s.strip().lower() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise InvalidConfig("--schemes names no scheme")
    for i, scheme in enumerate(schemes):
        if scheme not in baselines.SCHEMES + ("grfsq",):
            raise InvalidConfig(f"unknown scheme {scheme!r}")
        if scheme in schemes[:i]:
            raise InvalidConfig(f"--schemes names {scheme!r} twice")
    seed = _resolve_seed(args.seed)
    if not 0.0 <= args.holdout < 1.0:
        raise InvalidConfig("--holdout must be in [0, 1)")
    split = frames.shape[0] - int(round(args.holdout * frames.shape[0]))
    train = frames[:split] if args.holdout > 0 else frames
    evaluate = frames[split:] if args.holdout > 0 else frames
    if train.shape[0] == 0 or evaluate.shape[0] == 0:
        raise InvalidConfig("holdout split leaves an empty train or eval set")

    # every scheme's flags are checked before the first codebook is fit
    configs = [_ablate_config(args, scheme, seed, train) for scheme in schemes]
    # so is a codebook path `os.makedirs` would refuse after every fit: one whose nearest
    # existing node, a link to nothing too, is no directory. Its first mkdir is on or under
    # that node, so the call creates nothing and raises its own error, as for an empty
    # path. A relative walk ends at the working directory. A grfsq-only run writes none.
    node = args.save_codebooks if schemes != ["grfsq"] else None
    while node and not os.path.lexists(node.rstrip(os.sep) or node):
        node = os.path.dirname(node.rstrip(os.sep)) or os.curdir
    if node is not None and not os.path.isdir(node):
        os.makedirs(args.save_codebooks, exist_ok=True)
    fitted = _fit_baselines(schemes, configs, train)
    rows, blobs = [], {}
    for scheme, (cfg, bps), books in zip(schemes, configs, fitted):
        if scheme == "grfsq":
            tokens, recon, _ = quantize_sequence(evaluate, cfg)
            util = utilization(tokens, cfg)
        else:
            if isinstance(books, BaseException):
                raise books
            tokens, recon = baselines.baseline_encode(evaluate, cfg, books)
            util = baselines.baseline_utilization(tokens, cfg)
            if args.save_codebooks is not None:
                for g, row_books in enumerate(books):
                    for r, book in enumerate(row_books):
                        blobs[f"{scheme}_g{g}_r{r}.codebook"] = baselines.codebook_to_bytes(book)
        groups, residuals = tokens.shape[1:]
        rows.append(
            {
                "scheme": scheme,
                "groups": groups,
                "residuals": residuals,
                "codebook_size": cfg.codebook_size,
                "bitrate_bps": bps,
                "rmse": _frame_rmse(evaluate, recon)[1],
                "utilization_mean_percent": util.mean_percent,
            }
        )
    # every blob is serialized before the first is written, so a refused one writes none
    if blobs:
        os.makedirs(args.save_codebooks, exist_ok=True)
    for name, blob in blobs.items():
        with open(os.path.join(args.save_codebooks, name), "wb") as fh:
            fh.write(blob)

    if args.format == "csv":  # no field needs quoting: fixed scheme names, ints and floats
        lines = [rows[0].keys(), *(map(str, row.values()) for row in rows)]
        print("".join(",".join(line) + "\r\n" for line in lines), end="")
    else:
        print(json.dumps(rows))
    return 0


def cmd_schedule_sim(args) -> int:
    from . import generation  # only schedule-sim runs the generation harness

    # every stream, shape and vocab limit and predictor flag is checked before any input is read
    header = _stream_header(args)
    if args.vocab < 1:
        raise InvalidConfig(f"--vocab must be positive, got {args.vocab}")
    if args.vocab > MAX_SPEECH_VOCAB:  # tokens must stay exact in the float context
        raise InvalidConfig(f"--vocab must be at most 2**53, got {args.vocab}")
    if args.predictor == "bigram" and (args.train_motion is None or args.train_speech is None):
        raise InvalidConfig("--predictor bigram needs --train-motion and --train-speech")
    cfg = header.config
    num_classes = cfg.codebook_size
    if num_classes > ENUMERATION_CAP:  # each predictor builds rows of one probability per class
        raise TooLarge(f"{num_classes} classes exceed the cap of {ENUMERATION_CAP}")
    speech = generation.load_speech_tokens(args.speech, vocab=args.vocab)
    controls = generation.load_controls(args.controls)
    if args.predictor == "uniform":
        predictor = generation.UniformPredictor(num_classes)
    else:
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


def _diagnose(text: str) -> None:
    """Write and flush `text` to stderr, if there is one. A failed write raises."""
    if sys.stderr is not None:
        sys.stderr.write(text)
        sys.stderr.flush()


class _Parser(argparse.ArgumentParser):
    # argparse would drop a failed write and, with no stderr, print usage to stdout
    def error(self, message):
        _diagnose(f"{self.format_usage()}{self.prog}: error: {message}\n")
        self.exit(2)

    def _print_message(self, message, file=None):  # only --help's text, for stdout
        print(message, end="", file=file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grfsq", description="Group-residual FSQ motion codec"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quantizer_flags(p):
        p.add_argument("--groups", type=_INT, default=DEFAULT_GROUPS)
        p.add_argument("--residuals", type=_INT, default=DEFAULT_RESIDUALS)
        p.add_argument(
            "--levels", default=",".join(str(l) for l in DEFAULT_LEVELS),
            help="comma list of per-dimension level counts",
        )
        p.add_argument("--fps", type=_FLOAT, default=DEFAULT_FPS)
        p.add_argument("--seed", type=_INT, default=None)

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
    abl.add_argument("--vq-k", type=_INT, default=8196)
    abl.add_argument("--gvq-groups", type=_INT, default=32)
    abl.add_argument("--gvq-k", type=_INT, default=1024)
    abl.add_argument("--rvq-residuals", type=_INT, default=32)
    abl.add_argument("--rvq-k", type=_INT, default=1024)
    abl.add_argument("--grvq-groups", type=_INT, default=12)
    abl.add_argument("--grvq-residuals", type=_INT, default=4)
    abl.add_argument("--grvq-k", type=_INT, default=1024)
    abl.add_argument("--kmeans-iters", type=_INT, default=8)
    abl.add_argument(
        "--holdout", type=_FLOAT, default=0.0,
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
    sim.add_argument("--vocab", type=_INT, default=DEFAULT_SPEECH_VOCAB)
    sim.add_argument("--predictor", choices=("uniform", "bigram"), default="uniform")
    sim.add_argument("--train-motion", help=".grfq stream of target tensors for bigram")
    sim.add_argument("--train-speech", help="speech tokens aligned with --train-motion")
    sim.set_defaults(func=cmd_schedule_sim)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GrfsqError, OSError) as exc:
        return _report(exc)


def _report(exc: GrfsqError | OSError) -> int:
    """Write `exc`'s `error:` line; its exit code, or 4 for an OSError or a refused line."""
    try:
        _diagnose(f"error: {exc}\n")
    except OSError:
        return 4
    return exc.exit_code if isinstance(exc, GrfsqError) else 4


def run() -> None:
    """What every process runs, after `grfsq.__main__.main` (`python -m
    grfsq`, the `grfsq` script) has set its BLAS thread count.

    Runs `main()`, flushes stdout and stderr, and ends the process with
    `os._exit`: module teardown and the final collection would only add
    about 13 ms to every short command once numpy is loaded. Output that
    cannot be written exits 4. An exception `main` does not handle ends the
    process the usual way."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        code = _report(exc)
    os._exit(code)
