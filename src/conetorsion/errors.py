"""Exception types shared across the package, and the entry-by-entry check
of batched evaluations."""

from __future__ import annotations

import numpy as np


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


def first_failure(checks) -> tuple[int, type, str] | None:
    """The first entry of a batch that fails a check, as (flat index, error
    class, message), or None when every entry passes.

    ``checks`` lists (boolean mask over the batch, error class, message) in
    the order a scalar evaluation would run them; the entry's first failing
    check names the error.
    """
    bad = np.logical_or.reduce([mask for mask, _, _ in checks]).ravel()
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    err, message = next((err, msg) for mask, err, msg in checks if mask.flat[i])
    return i, err, message
