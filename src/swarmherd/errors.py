"""Exception types shared across the package."""


class SwarmHerdError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SwarmHerdError, ValueError):
    """Invalid configuration value or malformed config file."""


class EncodingError(SwarmHerdError, ValueError):
    """Discretized-state component out of range for the encoder."""


class CompatibilityError(SwarmHerdError, RuntimeError):
    """Q-table and environment shapes do not match."""


class QTableFormatError(CompatibilityError):
    """Malformed Q-table file (bad magic, version, or header)."""


class QTableDimensionError(QTableFormatError):
    """Q-table header fields are mutually inconsistent with the payload."""


class QTableTruncatedError(QTableFormatError):
    """Q-table payload is shorter than the header promises."""
