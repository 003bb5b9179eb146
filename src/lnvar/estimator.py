"""Streaming sample sums and the mean-ratio variability estimators.

The accumulator keeps just enough running sums to read out the arithmetic,
harmonic and geometric means, the relative mean ratio, and a conventional
moment-based squared coefficient of variation.  Values arrive in blocks (a
1-D array per call to extend); sum_x, sum_inv_x and sum_x2 are exact running
sums, each one Python int (ExactSum, below) read out correctly rounded, so the
readings do not depend on how a sample is split into blocks or merged, and no
square over- or underflows.  Reciprocals of a widely spread sample span many
orders of magnitude, and naive accumulation visibly biases the harmonic mean
once samples reach the millions.

ExactSum is the one summation scheme of the package: the simulator reduces
its per-run estimates with it too.  Its exact() reading, a Fraction, serves
each unbiased variance, cv2_conventional here and the simulator's sd_khat.

Alongside the data-facing estimators, this module holds the closed-form
population predictions for the relative ratio: its expected value, its
variance/sd before and after the n/(n-1) bias correction, the large-sample
efficiency of the corrected estimator, and the measurement-cost accounting
for collectively measured means.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptySampleError,
    SampleTooSmallError,
    check_at_least,
    check_int,
    check_positive,
    check_support,
)

__all__ = [
    "SampleAccumulator",
    "EstimateReport",
    "ExactSum",
    "two_product",
    "kn_from_sums",
    "expected_k_n",
    "var_k_n",
    "sd_k_n",
    "var_k_hat",
    "sd_k_hat",
    "large_sample_efficiency",
    "measurement_cost",
]

# ExactSum writes a finite float times 2**shift as M * 2**(i - _SCALE_BITS): M
# is np.frexp's mantissa scaled to an integer, |M| < 2**53, and i is frexp's
# exponent plus shift plus _EXP_OFFSET, in [1, 4300] for the parts of a square.
# M splits into a low limb in [0, 2**26) at bin i and a signed high limb in
# [-2**27, 2**27) at bin i + 26.  A float64 bincount of _BLOCK values is then
# exact (2**15 * 2**27 < 2**53), as is adding a block's high-limb bins onto its
# low-limb bins (both below 2**42), and folding 8 adjacent bins j = 0..7 into one
# float, sum(bin_j * 2**j) below 2**43 * 2**8 = 2**51, so Python adds 1/8 as many ints.
_EXP_OFFSET = 2252
_LIMB_BITS = 26
_SCALE_BITS = 2305
_SCALE = 1 << _SCALE_BITS
_BLOCK = 1 << 15
_GROUP_WEIGHTS = 2.0 ** np.arange(8)


class ExactSum:
    """The exact sum of float64 values, read out correctly rounded.

    A small superaccumulator (Neal 2015, arXiv:1505.05571; Kulisch's long
    accumulator) held as one Python int, the sum scaled by 2**_SCALE_BITS.
    numpy sums the integer mantissa limbs of a block by exponent with
    np.bincount, and the block's bins fold into the int 8 at a time.  value()
    divides the int by 2**_SCALE_BITS; CPython rounds that division correctly,
    subnormals included, so the reading equals math.fsum over the same
    values.  Adding two sums adds their ints, which is exactly associative, so
    the reading does not depend on how the values were split or in which order
    the parts were added.
    """

    __slots__ = ("_scaled",)

    def __init__(self, scaled: int = 0) -> None:
        self._scaled = scaled

    @classmethod
    def of(cls, values: np.ndarray, shift: np.ndarray | None = None) -> "ExactSum":
        """Sum of values[i] * 2**shift[i], shift optional; DomainError if a value is not finite."""
        scaled = 0
        for start in range(0, values.size, _BLOCK):
            mantissa, exponent = np.frexp(values[start : start + _BLOCK])
            if shift is not None:
                exponent += shift[start : start + _BLOCK]
            base = int(exponent.min())
            exponent -= base
            top = int(exponent.max()) + 1
            mantissa *= 2.0 ** (53 - _LIMB_BITS)
            high = np.floor(mantissa)
            with np.errstate(invalid="ignore"):
                mantissa -= high  # exact: the fractional part of a float
            mantissa *= 2.0**_LIMB_BITS
            bins = np.bincount(exponent, weights=mantissa, minlength=(top + _LIMB_BITS + 7) & -8)
            # an inf or a nan leaves a nan low limb
            if not np.isfinite(bins).all():
                raise DomainError("cannot sum a value that is not finite")
            bins[_LIMB_BITS : _LIMB_BITS + top] += np.bincount(exponent, weights=high, minlength=top)
            # not `@`: a matmul goes through BLAS, whose threads cost CPU in a fresh process
            groups = (bins.reshape(-1, 8) * _GROUP_WEIGHTS).sum(axis=1)
            nonzero = np.flatnonzero(groups)
            limbs = groups[nonzero].astype(np.int64).tolist()
            scaled += sum(g << 8 * i for i, g in zip(nonzero.tolist(), limbs)) << (base + _EXP_OFFSET)
        return cls(scaled)

    def __add__(self, other: "ExactSum") -> "ExactSum":
        return ExactSum(self._scaled + other._scaled)

    def exact(self) -> Fraction:
        """The sum as an exact rational."""
        return Fraction(self._scaled, _SCALE)

    def value(self, quantity: str = "sum") -> float:
        """The sum, correctly rounded; OverflowError naming quantity beyond the float range."""
        try:
            return self._scaled / _SCALE
        except OverflowError:
            raise OverflowError(f"{quantity} overflows a float") from None

    def checked(self, quantity: str) -> "ExactSum":
        """self, or OverflowError naming quantity when the sum is beyond the float range."""
        self.value(quantity)
        return self


def two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi = fl(a * b) and lo with hi + lo == a * b exactly, elementwise: Dekker's product
    (Numer. Math. 18, 1971) on Veltkamp's split at 2**27 + 1.  Exact when nothing over-
    or underflows: |a|, |b| < 2**996 and 2**-969 <= |a * b| < 2**1023."""
    hi = a * b
    ah, bh = a * 134217729.0, b * 134217729.0
    ah, bh = ah - (ah - a), bh - (bh - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _finite(value: float, quantity: str) -> float:
    """value, or OverflowError naming the quantity when it left the float range."""
    if not math.isfinite(value):
        raise OverflowError(f"{quantity} overflows a float")
    return value


def kn_from_sums(
    sum_x: np.ndarray | float, sum_inv_x: np.ndarray | float, n: int
) -> np.ndarray | float:
    """Relative ratio A_n/H_n - 1 of a size-n sample from its sums of x and 1/x.

    Works elementwise on numpy arrays of per-sample sums, with no clamp.
    """
    return sum_x * sum_inv_x / (n * n) - 1.0


@dataclass(frozen=True)
class EstimateReport:
    """Point estimates and diagnostics read out of one accumulator.

    predicted_sd_k_hat is a plug-in diagnostic: the population sd formula
    evaluated at the point estimate k_hat, not an unbiased sd estimate.
    """

    n: int
    a_n: float
    h_n: float
    k_n: float
    k_hat: float
    g_hat: float
    cv2_conventional: float
    predicted_sd_k_hat: float
    cost_collective: int
    cost_conventional: int


class SampleAccumulator:
    """Mergeable running sums of a positive-valued sample.

    Accumulators are plain values: fill independent ones on separate
    workers and combine them with merge (component-wise sums).  sum_x,
    sum_inv_x and sum_x2 are ExactSums, so any split into blocks and any
    merge tree give the same readings.
    """

    __slots__ = ("n", "_sx", "_sinv", "_sx2")

    def __init__(self) -> None:
        self.n = 0
        self._sx = ExactSum()
        self._sinv = ExactSum()
        self._sx2 = ExactSum()

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "SampleAccumulator":
        acc = cls()
        acc.extend(values if isinstance(values, np.ndarray) else list(values))
        return acc

    def __repr__(self) -> str:
        return (
            f"SampleAccumulator(n={self.n}, sum_x={self.sum_x!r}, "
            f"sum_inv_x={self.sum_inv_x!r}, sum_x2={self.sum_x2!r})"
        )

    @property
    def sum_x(self) -> float:
        return self._sx.value("sum_x")

    @property
    def sum_inv_x(self) -> float:
        return self._sinv.value("sum_inv_x")

    @property
    def sum_x2(self) -> float:
        try:
            return self._sx2.value()
        except OverflowError:
            return math.inf

    def extend(self, xs: np.ndarray | Sequence[float] | float) -> None:
        """Fold a 1-D block of observations in, or one observation.

        The whole block is validated, and all three new sums formed, before
        any sum changes, so a rejected block leaves the accumulator as it was.
        A value that is not a positive float with a float reciprocal is a
        DomainError; a sum_x or sum_inv_x beyond the float range, OverflowError.
        Each x*x enters exactly as two_product(m, m) times 2**(2e), x = m * 2**e.
        """
        try:
            xs = np.asarray(xs, dtype=np.float64).ravel()
        except OverflowError:  # an int or a Fraction past the largest float
            raise DomainError("a value is past the float range: not a positive float") from None
        if xs.size == 0:
            return
        check_support(xs)
        sx = (self._sx + ExactSum.of(xs)).checked("sum_x")
        sinv = (self._sinv + ExactSum.of(1.0 / xs)).checked("sum_inv_x")
        m, e = np.frexp(xs)
        sx2 = self._sx2 + ExactSum.of(np.concatenate(two_product(m, m)), np.tile(2 * e, 2))
        self._sx, self._sinv, self._sx2 = sx, sinv, sx2
        self.n += xs.size

    def merge(self, other: "SampleAccumulator") -> "SampleAccumulator":
        """Component-wise combination; commutative, with the empty accumulator as
        identity, and exactly associative."""
        out = SampleAccumulator()
        out.n = self.n + other.n
        out._sx = (self._sx + other._sx).checked("sum_x")
        out._sinv = (self._sinv + other._sinv).checked("sum_inv_x")
        out._sx2 = self._sx2 + other._sx2
        return out

    def _require(self, min_n: int) -> None:
        if self.n == 0:
            raise EmptySampleError("no observations accumulated")
        if self.n < min_n:
            raise SampleTooSmallError(
                f"need at least {min_n} observations, have {self.n}"
            )

    def arithmetic_mean(self) -> float:
        self._require(1)
        return self.sum_x / self.n

    def harmonic_mean(self) -> float:
        self._require(1)
        return self.n / self.sum_inv_x

    def relative_ratio(self) -> float:
        """Arithmetic-to-harmonic mean ratio minus one, clamped at 0 against fp residue.

        Raises OverflowError when the ratio is beyond float range.
        """
        self._require(1)
        kn = kn_from_sums(self.sum_x, self.sum_inv_x, self.n)
        return max(0.0, _finite(kn, "relative_ratio"))

    def k_hat(self) -> float:
        """Bias-corrected relative ratio: n/(n-1) times relative_ratio.

        Unbiased for the squared coefficient of variation of a lognormal
        population; undefined at n = 1 where the correction factor blows up.
        """
        self._require(2)
        return _finite((self.n / (self.n - 1.0)) * self.relative_ratio(), "k_hat")

    def g_hat(self) -> float:
        """Geometric-mean estimate sqrt(A_n * H_n); consistent, between the two means."""
        self._require(1)
        a, h = self.arithmetic_mean(), self.harmonic_mean()
        product = a * h
        if sys.float_info.min <= product < math.inf:
            return math.sqrt(product)
        # the product over- or underflows; the split form stays in range
        return math.sqrt(a) * math.sqrt(h)

    def cv2_conventional(self) -> float:
        """Unbiased sample variance over squared mean: one exact ratio of the sums, in [0, n]."""
        self._require(2)
        n, s1, s2 = self.n, self._sx.exact(), self._sx2.exact()
        return float(n * (n * s2 - s1 * s1) / ((n - 1) * s1 * s1))

    def report(self) -> EstimateReport:
        self._require(2)
        k_hat = self.k_hat()
        return EstimateReport(
            n=self.n,
            a_n=self.arithmetic_mean(),
            h_n=self.harmonic_mean(),
            k_n=self.relative_ratio(),
            k_hat=k_hat,
            g_hat=self.g_hat(),
            cv2_conventional=self.cv2_conventional(),
            predicted_sd_k_hat=_finite(sd_k_hat(self.n, k_hat), "predicted_sd_k_hat"),
            cost_collective=measurement_cost(self.n, "collective"),
            cost_conventional=measurement_cost(self.n, "conventional"),
        )


def expected_k_n(n: int, k: float) -> float:
    """Expected value of the uncorrected relative ratio: (n-1)/n * k; exact when k is a Fraction."""
    n = check_int(n, "n", 2)
    check_at_least(k, "k")
    return Fraction(n - 1, n) * (k if isinstance(k, Fraction) else float(k))


def var_k_n(n: int, k: float) -> float:
    """Variance of the uncorrected relative ratio: 2(n-1)/n^2 k^2 (1 + k + k^2/(2n)).
    Exact when k is a Fraction; otherwise in floats, as var_k_hat is."""
    n = check_int(n, "n", 2, sys.float_info.max)
    check_at_least(k, "k")
    k = k if isinstance(k, Fraction) else float(k)
    # a Fraction times a float k is float(Fraction) * k, a correctly rounded int / int
    return Fraction(2 * (n - 1), n * n) * k * k * (1 + k + k * k / n / 2)


def sd_k_n(n: int, k: float) -> float:
    try:
        return math.sqrt(var_k_n(n, k))
    except OverflowError:  # an exact variance, from a Fraction k, past the float range
        raise DomainError("var_k_n overflows a float") from None


def var_k_hat(n: int, k: float) -> float:
    """Variance of the bias-corrected ratio: 2/(n-1) k^2 (1 + k + k^2/(2n)), in floats."""
    n = check_int(n, "n", 2, sys.float_info.max)
    check_at_least(k, "k")
    k = float(k)
    return 2.0 / (n - 1) * k * k * (1.0 + k + k * k / n / 2.0)


def sd_k_hat(n: int, k: float) -> float:
    return math.sqrt(var_k_hat(n, k))


def large_sample_efficiency(sigma2_y: float) -> float:
    """Asymptotic efficiency of the corrected ratio estimator vs. the series-based
    minimum-variance benchmark: sigma2^2 / (exp(sigma2) - 1)^2.

    Strictly decreasing in sigma2_y with limit 1 at 0+; near 0 it is about
    1 - sigma2_y.
    """
    check_positive(sigma2_y, "sigma2_y")
    try:
        em = math.expm1(sigma2_y)
    except OverflowError:
        return 0.0
    ratio = sigma2_y / em
    return ratio * ratio


def measurement_cost(n: int, mode: Literal["conventional", "collective"]) -> int:
    """Number of physical measurements needed for a size-n sample.

    Conventional per-replicate reading costs n; collectively measured
    arithmetic and harmonic means cost 2 (one reading each) regardless of n.
    """
    n = check_int(n, "n", 2)
    if mode == "conventional":
        return n
    if mode == "collective":
        return 2
    raise DomainError(f"unknown measurement mode {mode!r}")
