"""Exception types shared across the package, and the argument checks that raise them."""

from __future__ import annotations

import math
import numbers
import os
import sys
from decimal import Decimal
from fractions import Fraction

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


def is_real(value: object) -> bool:
    """Whether value is a numbers.Real (a bool too, as in check_int) or a Decimal but NaN."""
    return isinstance(value, numbers.Real) or isinstance(value, Decimal) and not value.is_nan()


def check_real(value: object, name: str, minimum: float = 0.0,
               maximum: float = sys.float_info.max, *, positive: bool = False) -> float:
    """value as a float; DomainError unless it is a real number (is_real) or a 0-d array of one,
    in [minimum, maximum] unrounded, or when positive in (0, maximum] before and after rounding."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if not is_real(value):
        raise DomainError(f"{name} must be a real number, got {_brief(value)}")
    if positive and not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {_brief(value)}")
    if not minimum <= value < math.inf:
        raise DomainError(f"{name} must be >= {minimum:g} and finite, got {_brief(value)}")
    if value > maximum:
        raise DomainError(f"{name} must be <= {maximum!r}, got {_brief(value)}")
    if (real := float(value)) == 0.0 and positive:  # a Fraction or Decimal at most 2**-1075
        raise DomainError(f"{name} rounds to 0.0 as a float, got {_brief(value)}")
    return real


def check_exact(value: object, name: str, minimum: float = 0.0) -> float | Fraction:
    """check_real(value, name, minimum), or value itself when it is a Fraction."""
    real = check_real(value, name, minimum)
    return value if isinstance(value, Fraction) else real


def _brief(value: object) -> str:
    """str(value), quoted for a str; an int or Fraction over 40 characters as its first digits."""
    text = repr(str(value)) if isinstance(value, str) else str(value)
    if len(text) <= 40 or not hasattr(value, "denominator"):
        return text
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
