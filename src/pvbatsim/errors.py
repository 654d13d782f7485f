"""Exception types shared across the simulator. Each one means a failed run
or command, never a branch of a step; the CLI maps them to its exit codes."""


class PvbatsimError(Exception):
    """Base class for all simulator errors."""


class DomainError(PvbatsimError, ValueError):
    """An argument lies outside the physical domain of an operation."""


class ConvergenceError(PvbatsimError):
    """An iterative solver failed to meet its tolerance."""


class ConfigError(PvbatsimError, ValueError):
    """A configuration file or value failed validation."""


class ProfileError(PvbatsimError, ValueError):
    """A time-series profile failed validation."""


class InvariantViolation(PvbatsimError):
    """A runtime consistency check (power balance, ledger closure) failed."""
