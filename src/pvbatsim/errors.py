"""The simulator's two exception types, one per exit code of the CLI. Each
means a failed run or command, never a branch of a step; an ``OSError`` is
the third failure, exit 2."""


class ConfigError(ValueError):
    """A configuration file, profile CSV or flag failed validation (exit 1)."""


class InvariantViolation(Exception):
    """A solve failed or a consistency check did not hold (exit 3)."""
