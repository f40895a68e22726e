"""Group-residual finite scalar quantization codec."""

from .baselines import (
    BaselineConfig,
    Codebook,
    baseline_bitrate,
    baseline_encode,
    baseline_utilization,
    codebook_from_bytes,
    codebook_to_bytes,
    fit_codebooks,
    kmeans_fit,
)
from .bitstream import (
    MODE_FIXED_WIDTH,
    MODE_MIXED_RADIX,
    StreamHeader,
    frame_bits,
    frame_block_bytes,
    frame_pack,
    frame_unpack,
    read_stream,
    write_stream,
)
from .errors import (
    ConfigMismatch,
    CorruptStream,
    DegenerateCalibration,
    GrfsqError,
    InvalidCode,
    InvalidConfig,
    InvalidIndex,
    InvalidInput,
    PredictorContractViolation,
    TooLarge,
)
from .fsq import (
    ENUMERATION_CAP,
    LevelSpec,
    bound,
    codes_to_index,
    enumerate_codebook,
    fsq_dequantize,
    fsq_quantize,
    index_to_codes,
    ste_gradient,
)
from .generation import (
    BigramPredictor,
    ControlTrack,
    EchoPredictor,
    GenerationContext,
    Schedule,
    SpeechTokenSeq,
    UniformPredictor,
    argmax_sample,
    assemble_context,
    build_schedule,
    generate,
    load_controls,
    load_speech_tokens,
    nll,
)
from .quantizer import (
    DEFAULT_FPS,
    DEFAULT_GROUPS,
    DEFAULT_LEVELS,
    DEFAULT_RESIDUALS,
    GrfsqConfig,
    ReconstructionReport,
    UtilizationReport,
    bitrate,
    calibrate_projections,
    float_stream_bitrate,
    grfsq_dequantize,
    grfsq_quantize,
    quantize_sequence,
    utilization,
)

__version__ = "0.1.0"
