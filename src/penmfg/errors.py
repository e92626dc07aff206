"""Shared exception types.

Errors carry enough structure (step / particle / line numbers) for callers to
report diagnostics without parsing messages.
"""

from __future__ import annotations


class PenmfgError(Exception):
    """Base class for all library errors."""


class DomainError(PenmfgError):
    """Invalid domain definition, or points of the wrong dimension."""


class ContractViolationError(PenmfgError):
    """A user-supplied callback broke its declared contract."""


class DivergenceError(PenmfgError):
    """A particle state became non-finite during simulation."""

    def __init__(self, step: int, particles):
        self.step = int(step)
        self.particles = [int(i) for i in particles]
        head = self.particles[:8]
        super().__init__(
            f"non-finite state at step {self.step} for particle(s) {head}"
            + ("..." if len(self.particles) > len(head) else "")
        )


class GridError(PenmfgError):
    """Dynamic-programming grid cannot produce valid transition probabilities."""


class ConfigError(PenmfgError):
    """Configuration parse or validation failure, with a source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

