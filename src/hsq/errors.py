"""Exception hierarchy shared by all hsq modules."""


class HsqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidShape(HsqError):
    """A dimension or count argument is structurally impossible."""


class RankDeficient(HsqError):
    """Codebook matrix is numerically rank deficient (sigma_min < 1e-10)."""


class InvalidGradient(HsqError):
    """Gradient contains NaN or Inf entries."""


class DimensionMismatch(HsqError):
    """Inputs that must agree on dimensions do not."""


class EmptyInput(HsqError):
    """An aggregate-style operation received no inputs."""


class UnknownScheme(HsqError):
    """Quantizer scheme name is not recognized."""


class Overflow(HsqError):
    """A field exceeds the range representable on the wire."""


class WireFormatError(HsqError):
    """A byte stream does not parse as a valid wire frame or codebook file."""


class ConfigError(HsqError):
    """Experiment configuration is invalid.

    Attributes:
        violations: list of "field: problem" strings, one per offending field.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
