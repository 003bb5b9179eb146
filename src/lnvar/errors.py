"""Exception types shared across the package, and the argument checks that raise them."""

import math


class LnvarError(Exception):
    """Base class for all lnvar errors."""


class DomainError(LnvarError, ValueError):
    """Input outside the mathematical domain of an operation."""


class EmptySampleError(DomainError):
    """The operation needs at least one observation."""


class SampleTooSmallError(DomainError):
    """The operation needs more observations than the accumulator holds."""


class DegenerateDistributionError(DomainError):
    """The zero-variance (point mass) case has no density."""


class BudgetExceededError(LnvarError):
    """A simulation would exceed the configured draw budget."""

    def __init__(self, message: str, cost: int, budget: int):
        super().__init__(message)
        self.cost = cost
        self.budget = budget


def check_int(value: int, name: str, minimum: int) -> None:
    """DomainError unless the integer value is at least minimum."""
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def check_positive(value: float, name: str) -> None:
    """DomainError unless value is a positive finite float."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_at_least(value: float, name: str, minimum: float = 0.0) -> None:
    """DomainError unless value is a finite float >= minimum (by default, non-negative)."""
    if not (math.isfinite(value) and value >= minimum):
        raise DomainError(f"{name} must be >= {minimum:g} and finite, got {value}")
