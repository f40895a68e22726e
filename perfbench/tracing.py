"""In-process span tracing around the public functions of each grfsq module.

Each traced name is wrapped where its caller looks it up (a module global or
a class attribute), so nothing inside ``src/`` changes. Spans are kept in
memory as (name, start, end, parent, op) and written out once at the end.
Work done by a function that is not wrapped lands in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). An attribute "Class.method" is patched on
# the class, which is where instances look it up.
TARGETS = (
    ("grfsq.cli", "quantize_sequence", "quantizer.quantize_sequence"),
    ("grfsq.cli", "grfsq_dequantize", "quantizer.grfsq_dequantize"),
    ("grfsq.cli", "calibrate_projections", "quantizer.calibrate_projections"),
    ("grfsq.cli", "utilization", "quantizer.utilization"),
    ("grfsq.bitstream", "write_stream", "bitstream.write_stream"),
    ("grfsq.bitstream", "read_stream", "bitstream.read_stream"),
    ("grfsq.bitstream", "frame_pack", "bitstream.frame_pack"),
    ("grfsq.bitstream", "frame_unpack", "bitstream.frame_unpack"),
    ("grfsq.generation", "load_speech_tokens", "generation.load_inputs"),
    ("grfsq.generation", "load_controls", "generation.load_inputs"),
    ("grfsq.generation", "BigramPredictor.fit", "generation.fit"),
    ("grfsq.generation", "BigramPredictor.__call__", "generation.predict"),
    ("grfsq.generation", "generate", "generation.generate"),
    ("grfsq.generation", "assemble_context", "generation.assemble_context"),
    ("grfsq.generation", "argmax_sample", "generation.argmax"),
    ("grfsq.generation", "nll", "generation.nll"),
    ("grfsq.generation", "validate_prediction_grid", "generation.validate"),
    ("grfsq.baselines", "fit_codebooks", "baselines.fit_codebooks"),
    ("grfsq.baselines", "kmeans_fit", "baselines.kmeans_fit"),
    ("grfsq.baselines", "baseline_encode", "baselines.baseline_encode"),
    ("grfsq.baselines", "baseline_utilization", "baselines.baseline_utilization"),
)
CLI_SPANS = ("cli.encode", "cli.decode", "cli.schedule_sim", "cli.ablate")
SPANS = CLI_SPANS + tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = ("cli", "quantizer", "bitstream", "generation", "baselines")


class Tracer:
    """Records spans and the counters taken from traced calls' arguments/results."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        # counters summed per op; last_* feed the end-of-run quality figures
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.last_quantize = None  # (tokens, report, codebook size)
        self.last_header = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _observe(self, name: str, args, result) -> None:
        c = self.counts[self.op]
        if name == "quantizer.quantize_sequence":
            c["quantizer.frames"] += len(result[0])
            self.last_quantize = (result[0], result[2], args[1].codebook_size)
        elif name == "baselines.kmeans_fit":
            n, dim = np.shape(args[0])
            c["baselines.kmeans_work"] += n * args[1] * dim
        elif name == "generation.predict":
            c["generation.grid_cells"] += np.size(result)
        elif name == "bitstream.write_stream":
            self.last_header = args[0]
        elif name == "bitstream.read_stream":
            self.last_header = result[0]

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, path, name in TARGETS:
                owner = importlib.import_module(module)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> list[float]:
        """Span duration minus the part covered by its direct children.
        Children of one span run one after another (single thread), so the
        covered part is the sum of their durations."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]


def per_op_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced ops of per-op totals."""
    selfs = tracer.self_times()
    per_op = {op: defaultdict(float) for op in ops}
    for i, (name, start, end, _, op) in enumerate(tracer.spans):
        if op not in per_op:
            continue
        row = per_op[op]
        row[name + ".ms"] += (end - start) * 1e3
        row[name + ".self_ms"] += selfs[i] * 1e3
        row[name + ".calls"] += 1
        row[name.split(".")[0] + ".self_ms"] += selfs[i] * 1e3
    for op in ops:
        per_op[op].update(tracer.counts.get(op, {}))

    def med(key):
        return float(np.median([per_op[op].get(key, 0.0) for op in ops]))

    m: dict[str, float] = {}
    for name in SPANS:
        m[name + ".ms"] = med(name + ".ms")
        m[name + ".calls"] = med(name + ".calls")
        m[name + ".errors"] = float(tracer.errors.get(name, 0))
    for name in CLI_SPANS:
        m[name + ".self_ms"] = med(name + ".self_ms")
    for layer in LAYERS[1:]:
        m[layer + ".self_ms"] = med(layer + ".self_ms")
    q_ms = m["quantizer.quantize_sequence.ms"]
    m["quantizer.frames_per_s"] = med("quantizer.frames") / (q_ms / 1e3) if q_ms > 0 else 0.0
    m["baselines.kmeans_work"] = med("baselines.kmeans_work")
    m["generation.grid_cells"] = med("generation.grid_cells")
    validations = m["generation.validate.calls"]
    m["generation.validate.useful_ratio"] = (
        m["generation.predict.calls"] / validations if validations else 0.0
    )
    m.update(_quality(tracer))
    m.update(_payload_ratio(tracer.last_header))
    return m


def _quality(tracer: Tracer) -> dict[str, float]:
    """Stage RMSE and utilization, and order-0 index entropy, from the last
    quantize_sequence result. Zeros where the workload quantizes nothing."""
    m = {f"quantizer.stage_rmse.r{r}": 0.0 for r in range(4)}
    m.update({f"quantizer.stage_util_pct.r{r}": 0.0 for r in range(4)})
    m["quantizer.index_entropy_bits_per_frame"] = 0.0
    if tracer.last_quantize is None:
        return m
    tokens, report, size = tracer.last_quantize
    T, G, R = tokens.shape
    entropy = 0.0
    for r in range(min(R, 4)):
        m[f"quantizer.stage_rmse.r{r}"] = float(report.cumulative_rmse_by_residual[r])
        util = [len(np.unique(tokens[:, g, r])) for g in range(G)]
        m[f"quantizer.stage_util_pct.r{r}"] = 100.0 * float(np.mean(util)) / size
    for g in range(G):
        for r in range(R):
            p = np.bincount(tokens[:, g, r]) / T
            p = p[p > 0]
            entropy += float(-(p * np.log2(p)).sum())
    m["quantizer.index_entropy_bits_per_frame"] = entropy
    return m


def _payload_ratio(header) -> dict[str, float]:
    if header is None:
        return {"bitstream.payload_bit_ratio": 0.0}
    from grfsq.bitstream import frame_bits, frame_block_bytes

    cfg, mode = header.config, header.packing_mode
    return {"bitstream.payload_bit_ratio": frame_bits(cfg, mode) / (8 * frame_block_bytes(cfg, mode))}
