"""Exception types shared across the package, and the argument checks that raise them."""

from __future__ import annotations

import math
import numbers
import os
import sys

import numpy as np


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


# The most float64 values one array may be asked to hold.  2^59 floats are
# 4 EiB, past any address space, so a count up to this fails as MemoryError;
# much past it numpy cannot even size the array, and np.linspace(1, 2, 2**60 - 1)
# raises ValueError.
MAX_FLOAT_ARRAY_LEN = 1 << 59


BUDGET_ENV_VAR = "LNVAR_MAX_DRAWS"
DEFAULT_MAX_DRAWS = 10**9


def check_draw_budget(cost: int, request: str) -> None:
    """BudgetExceededError if cost draws exceed LNVAR_MAX_DRAWS, by default DEFAULT_MAX_DRAWS."""
    env = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_MAX_DRAWS))
    try:
        budget = int(env)
    except ValueError:
        raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    budget = check_int(budget, BUDGET_ENV_VAR, 0)
    if cost > budget:
        message = f"{request} needs {cost} draws, over the budget of {budget}"
        raise BudgetExceededError(f"{message}; raise {BUDGET_ENV_VAR} to allow it", cost, budget)


def check_int(value: int, name: str, minimum: int, maximum: int | None = None) -> int:
    """value as a Python int; DomainError unless it is an integer (a numbers.Rational
    with denominator 1: a numpy integer or a whole Fraction too) that is at least
    minimum, and at most maximum when one is given."""
    if not (isinstance(value, numbers.Rational) and value.denominator == 1):
        raise DomainError(f"{name} must be an integer, got {_brief(value)}")
    value = int(value)  # a numpy integer's arithmetic wraps, and numpy refuses a Fraction
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {_brief(value)}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {_brief(value)}")
    return value


def check_positive(value: float, name: str, maximum: float = sys.float_info.max) -> None:
    """DomainError unless 0 < value <= maximum, by default the largest float; ints and
    Fractions of any size compare exactly."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {_brief(value)}")
    _check_at_most(value, name, maximum)


def check_at_least(
    value: float, name: str, minimum: float = 0.0, maximum: float = sys.float_info.max
) -> None:
    """DomainError unless minimum <= value <= maximum (by default, non-negative and at
    most the largest float); compares like check_positive."""
    if not minimum <= value < math.inf:
        raise DomainError(f"{name} must be >= {minimum:g} and finite, got {_brief(value)}")
    _check_at_most(value, name, maximum)


def _check_at_most(value: float, name: str, maximum: float) -> None:
    if value > maximum:
        raise DomainError(f"{name} must be <= {maximum!r}, got {_brief(value)}")


def _brief(value: float) -> str:
    """str(value), or for an int or Fraction longer than 40 characters its first digits."""
    if len(text := str(value)) <= 40 or not hasattr(value, "denominator"):
        return text
    from decimal import Decimal  # only for such a message
    return f"about {Decimal(value.numerator) / value.denominator:.6g}"


# The positive floats whose reciprocal is a float too: (SUPPORT_LOW, SUPPORT_HIGH].
SUPPORT_LOW = 2.0**-1024  # 1 / SUPPORT_LOW overflows
SUPPORT_HIGH = sys.float_info.max


def check_support(xs: np.ndarray) -> None:
    """DomainError unless every value of the nonempty float array xs lies in
    (SUPPORT_LOW, SUPPORT_HIGH]; the message names the first value that does not.
    Its smallest and largest values decide (a NaN makes both NaN), so only a
    failing array is scanned value by value."""
    if SUPPORT_LOW < xs.min() and xs.max() <= SUPPORT_HIGH:
        return
    x = float(xs[((xs > SUPPORT_LOW) & (xs <= SUPPORT_HIGH)).argmin()])
    if 0.0 < x < math.inf:
        raise DomainError(f"{x!r} is too close to 0: its reciprocal overflows a float")
    raise DomainError(f"lognormal support is positive reals, got {x}")
