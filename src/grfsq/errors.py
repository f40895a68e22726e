"""Exception types raised across the library. Each class declares `exit_code`,
the CLI's exit code for it: 2 for a data error, 3 for a configuration error."""


class GrfsqError(Exception):
    """Base class for all library errors."""
    exit_code: int


class InvalidInput(GrfsqError):
    """Input data is malformed: non-finite values, wrong length, or ragged rows."""
    exit_code = 2


class InvalidCode(GrfsqError):
    """A per-dimension code is outside its level range."""
    exit_code = 2


class InvalidIndex(GrfsqError):
    """A flat codeword index is outside the codebook."""
    exit_code = 2


class TooLarge(GrfsqError):
    """Requested codebook enumeration exceeds the configured cap."""
    exit_code = 3


class InvalidConfig(GrfsqError):
    """A configuration violates a structural invariant."""
    exit_code = 3


class ConfigMismatch(GrfsqError):
    """Data dimensions do not match the quantizer configuration."""
    exit_code = 3


class DegenerateCalibration(GrfsqError):
    """Calibration data has insufficient rank for the requested projection."""
    exit_code = 3


class CorruptStream(GrfsqError):
    """A serialized stream failed validation."""
    exit_code = 2


class PredictorContractViolation(GrfsqError):
    """A predictor returned a grid inconsistent with the generation contract."""
    exit_code = 3
