"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration record failed validation.

    ``field`` carries the dotted path of the offending entry so the CLI can
    print actionable diagnostics (exit code 2).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class CutoffInsufficientError(RuntimeError):
    """The enumerated spectrum is too short for the requested tolerance.

    ``required_cutoff`` names the eigenvalue cutoff that would suffice.
    """

    def __init__(self, message: str, required_cutoff: float):
        self.required_cutoff = required_cutoff
        super().__init__(f"{message} (required cutoff: {required_cutoff:.6g})")


class ZetaPoleError(DomainError):
    """A zeta function was evaluated at a pole without requesting PP mode."""


class ODEIntegrationError(RuntimeError):
    """An ODE oracle could not resolve a system or its end state overflows."""
