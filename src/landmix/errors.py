"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class LandmixError(Exception):
    """Base class for all package errors."""


class ConfigError(LandmixError):
    """Invalid run or chain configuration."""


class DataFormatError(LandmixError):
    """Malformed or inconsistent input data."""


class DegenerateCovarianceError(LandmixError):
    """A 2x2 covariance matrix is singular or not positive definite."""


class DegenerateDataError(LandmixError):
    """Data (or current state) makes a full conditional improper."""


@contextmanager
def utf8_text(path, error: type[LandmixError] = DataFormatError):
    """Raise ``error`` naming ``path`` when reading it meets bytes that are
    not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
