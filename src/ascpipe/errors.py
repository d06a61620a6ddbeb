"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

from pathlib import Path


class AscError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(AscError):
    """Invalid configuration: unknown keys, out-of-range values, bad paths."""


class DataError(AscError):
    """Invalid input data: bad files, shape mismatches, empty manifests."""


class NumericError(AscError):
    """Numerical failure: non-finite values, diverging training."""


class MalformedWavError(DataError):
    """WAV file truncated or structurally invalid."""


class UnsupportedWavError(DataError):
    """WAV file readable but using an encoding we do not decode."""


class GraphError(DataError):
    """Model graph is structurally invalid or shapes do not propagate."""


def read_text(path, error: type[AscError], what: str) -> str:
    """UTF-8 text of ``path``; a file that cannot be read or decoded
    raises ``error`` saying "cannot read <what> <path>"."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
