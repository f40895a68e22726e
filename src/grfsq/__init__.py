"""Group-residual finite scalar quantization codec.

Public names resolve on first access (PEP 562), so `import grfsq` loads no
submodule and a process compiles only the modules it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it provides as attributes of the package
_PUBLIC = {
    "baselines": (
        "BaselineConfig",
        "Codebook",
        "baseline_bitrate",
        "baseline_encode",
        "baseline_utilization",
        "codebook_from_bytes",
        "codebook_to_bytes",
        "fit_codebooks",
        "kmeans_fit",
    ),
    "bitstream": (
        "MODE_FIXED_WIDTH",
        "MODE_MIXED_RADIX",
        "StreamHeader",
        "frame_bits",
        "frame_block_bytes",
        "frame_pack",
        "frame_unpack",
        "read_stream",
        "write_stream",
    ),
    "errors": (
        "ConfigMismatch",
        "CorruptStream",
        "DegenerateCalibration",
        "GrfsqError",
        "InvalidCode",
        "InvalidConfig",
        "InvalidIndex",
        "InvalidInput",
        "PredictorContractViolation",
        "TooLarge",
    ),
    "fsq": (
        "ENUMERATION_CAP",
        "LevelSpec",
        "bound",
        "codes_to_index",
        "enumerate_codebook",
        "fsq_dequantize",
        "fsq_quantize",
        "index_to_codes",
        "ste_gradient",
    ),
    "generation": (
        "BigramPredictor",
        "ControlTrack",
        "EchoPredictor",
        "GenerationContext",
        "Schedule",
        "SpeechTokenSeq",
        "UniformPredictor",
        "argmax_sample",
        "assemble_context",
        "build_schedule",
        "generate",
        "load_controls",
        "load_speech_tokens",
        "nll",
    ),
    "quantizer": (
        "DEFAULT_FPS",
        "DEFAULT_GROUPS",
        "DEFAULT_LEVELS",
        "DEFAULT_RESIDUALS",
        "GrfsqConfig",
        "ReconstructionReport",
        "UtilizationReport",
        "bitrate",
        "calibrate_projections",
        "float_stream_bitrate",
        "grfsq_dequantize",
        "grfsq_quantize",
        "quantize_sequence",
        "utilization",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's submodule (or a submodule itself) on first use."""
    if name in _PUBLIC:
        return _import_module(f".{name}", __name__)  # the import sets the attribute
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_PUBLIC))
