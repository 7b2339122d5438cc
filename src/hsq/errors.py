"""Exception hierarchy shared by all hsq modules, and the number rules every argument rule uses."""

import numbers
import sys


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


def out_of_range(name: str, value, least, most=None, label=None) -> list[str]:
    """[] if value is an int (numpy integers count, bools do not) with least <= value <= most,
    else one "name: problem" message; None as value violates, None as a bound is none,
    and label stands for least in the message."""
    if value is not None and (type(value) is bool or not isinstance(value, numbers.Integral)):
        return [f"{name}: must be an int, got {value!r}"]
    if value is None or least is not None and value < least:
        return [f"{name}: must be >= {least if label is None else label}, got {value!r}"]
    return [] if most is None or value <= most else [f"{name}: must be <= {most}, got {value!r}"]


def real_violations(name: str, value, least, strict: bool = False) -> list[str]:
    """[] if value is a real number within the f64 range (bools are not) with least < value,
    or least <= value when not strict, else one "name: problem" message."""
    if (type(value) is bool or not isinstance(value, numbers.Real)
            or not -sys.float_info.max <= value <= sys.float_info.max):  # nan fails both
        return [f"{name}: must be a finite real number, got {value!r}"]
    return [] if value > least or value == least and not strict else [
        f"{name}: must be {'>' if strict else '>='} {least}, got {value!r}"]


def refuse(violations: list[str]) -> None:
    """Raise a rule's violations, if any, as a ConfigError."""
    if violations:
        raise ConfigError(violations)


def refuse_argument(violations: list[str]) -> None:
    """Raise the first of a library argument's violations, if any, as a ValueError."""
    if violations:
        raise ValueError(violations[0])
