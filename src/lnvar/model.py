"""Closed-form lognormal quantities, both density parameterizations, and seeded sampling."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_FLOAT_ARRAY_LEN,
    DegenerateDistributionError,
    DomainError,
    check_at_least,
    check_int,
    check_positive,
    check_support,
)

__all__ = [
    "LogNormalParams",
    "DerivedMoments",
    "derive_moments",
    "params_from_gk",
    "pdf",
    "pdf_gk",
    "sample",
]


@dataclass(frozen=True)
class LogNormalParams:
    """Location and variance of the underlying normal (log-space) variable."""

    mu_y: float
    sigma2_y: float

    def __post_init__(self) -> None:
        check_at_least(self.mu_y, "mu_y", -sys.float_info.max)
        check_at_least(self.sigma2_y, "sigma2_y")


@dataclass(frozen=True)
class DerivedMoments:
    """Real-space population quantities implied by the log-space parameters.

    omega is the arithmetic-to-harmonic mean ratio alpha/h; k = omega - 1
    coincides with the squared coefficient of variation cv2, which is what
    the ratio estimators in this package target.
    """

    alpha: float
    h: float
    g: float
    beta2: float
    cv2: float
    omega: float
    k: float


def _checked_exp(arg: float, field: str) -> float:
    try:
        value = math.exp(arg)
    except OverflowError:
        raise DomainError(f"{field} overflows: exp({arg:g}) exceeds the float range") from None
    if value == 0.0:
        raise DomainError(f"{field} underflows to zero: exp({arg:g})")
    return value


def derive_moments(p: LogNormalParams) -> DerivedMoments:
    """Means, variance and ratio quantities of LN(mu_y, sigma2_y).

    alpha = exp(mu + s2/2), h = exp(mu - s2/2), g = exp(mu),
    beta2 = exp(2 mu + s2) (exp(s2) - 1), cv2 = k = exp(s2) - 1,
    omega = k + 1.  k uses expm1 so small variances round-trip cleanly.
    """
    mu, s2 = p.mu_y, p.sigma2_y
    g = _checked_exp(mu, "g")
    alpha = _checked_exp(mu + 0.5 * s2, "alpha")
    h = _checked_exp(mu - 0.5 * s2, "h")
    try:
        k = math.expm1(s2)
    except OverflowError:
        raise DomainError(f"k overflows: expm1({s2:g}) exceeds the float range") from None
    if k == 0.0:
        beta2 = 0.0
    else:
        try:
            beta2 = math.exp(2.0 * mu + s2) * k
        except OverflowError:
            raise DomainError("beta2 overflows the float range") from None
        if math.isinf(beta2):
            raise DomainError("beta2 overflows the float range")
    return DerivedMoments(alpha=alpha, h=h, g=g, beta2=beta2, cv2=k, omega=k + 1.0, k=k)


def params_from_gk(g: float, k: float) -> LogNormalParams:
    """Log-space parameters from the geometric mean g and the relative ratio k.

    Inverse of derive_moments in the (g, k) coordinates: mu = ln g,
    sigma2 = ln(1 + k).
    """
    check_positive(g, "g")
    check_at_least(k, "k")
    return LogNormalParams(mu_y=math.log(g), sigma2_y=math.log1p(k))


def pdf(x: float, p: LogNormalParams) -> float:
    """Density of LN(mu_y, sigma2_y) at x > 0.

    The zero-variance point mass has no density, so sigma2_y must be > 0
    even though derive_moments and sample accept the boundary.
    """
    if p.sigma2_y == 0.0:
        raise DegenerateDistributionError("zero log-space variance has no density")
    check_positive(x, "x")
    s2 = p.sigma2_y
    t = math.log(x) - p.mu_y
    return math.exp(-(t * t) / (2.0 * s2)) / (x * math.sqrt(2.0 * math.pi * s2))


def pdf_gk(x: float, g: float, k: float) -> float:
    """Density at x of the lognormal with geometric mean g and relative ratio k.

    k = 0 is the point mass at g, which has no density.
    """
    return pdf(x, params_from_gk(g, k))


def sample(p: LogNormalParams, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. lognormal variates, deterministic for fixed (seed, n, p).

    Uses numpy's PCG64 stream seeded through SeedSequence(seed); normal
    variates come from the ziggurat sampler and are exponentiated in place
    onto the positive support.  The contract is distributional plus
    determinism, not bit-compatibility with any other generator.  A Generator
    seed draws on from its state: blocks drawn from it in turn equal one draw.

    Every draw must be usable by the estimator: a positive finite float with
    a finite reciprocal.  A draw that overflows to inf, underflows to 0, or
    lands so close to 0 that its reciprocal overflows (say mu_y = 800, or
    mu_y = -740 with sigma2_y = 0) raises DomainError, without a numpy
    warning.
    """
    n = check_int(n, "n", 1, MAX_FLOAT_ARRAY_LEN)
    if not isinstance(seed, np.random.Generator):
        seed = check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    values = rng.normal(p.mu_y, math.sqrt(p.sigma2_y), size=n)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(values, out=values)
    try:
        check_support(values)
    except DomainError as exc:
        raise DomainError(
            f"LN(mu_y={p.mu_y:g}, sigma2_y={p.sigma2_y:g}) draws beyond the float range: {exc}"
        ) from None
    return values
