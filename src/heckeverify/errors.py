"""Exception hierarchy for the verification pipeline."""


class HeckeVerifyError(Exception):
    """Base class for all library errors."""


class NotAUnit(HeckeVerifyError):
    """Laurent polynomial is not a single invertible term."""


class DimensionMismatch(HeckeVerifyError):
    """Incompatible matrix dimensions or tensor layouts."""


class ConstraintViolation(HeckeVerifyError):
    """Structural parameters violate a required algebraic constraint."""


class NotInvertible(HeckeVerifyError):
    """Matrix has no inverse under the quadratic-relation formula."""


class IndexOutOfRange(HeckeVerifyError):
    """Generator or element index outside the valid range."""


class CalibrationFailure(HeckeVerifyError):
    """No (or no unique) candidate satisfies the calibration identity."""


class ConfigError(HeckeVerifyError):
    """Invalid run configuration."""
