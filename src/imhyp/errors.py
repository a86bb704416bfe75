"""Exception hierarchy shared by all imhyp modules.

The driver maps these onto process exit codes: ConfigError (and its
subclasses) -> 1, HypothesisNotMet -> 2, NumericalFailure -> 3; any other
exception reaching the command line is an internal error -> 4.
"""

from __future__ import annotations


class ImhypError(Exception):
    """Base class for all errors raised by imhyp."""


class ConfigError(ImhypError):
    """Invalid configuration or arguments (unknown keys, bad ranges)."""


class PreconditionError(ConfigError):
    """An operation's stated precondition does not hold for the inputs."""


class ResourceBudgetError(ConfigError):
    """A request would exceed the configured memory budget."""


class HypothesisNotMet(ImhypError):
    """The mathematical hypothesis behind an operation fails for the inputs."""


class NumericalFailure(ImhypError):
    """An iterative scheme failed to converge or a consistency check broke."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
