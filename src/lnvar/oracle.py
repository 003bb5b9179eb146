"""Exact mean and variance of the relative ratio by covariance enumeration.

The mean ratio A_n/H_n expands into (1/n^2) * sum over ordered index pairs of
X_i/X_j, so its variance is a sum of covariances Cov(X_i/X_j, X_p/X_q) over
all [n(n-1)]^2 ordered pairs of ordered pairs.  For lognormal X the value of
each covariance depends only on how the two index pairs overlap, which splits
the terms into seven classes:

    kind                 pair pattern            covariance     count
    self_pair            (i,j) vs (i,j)          w^4 - w^2      n(n-1)
    reciprocal_pair      (i,j) vs (j,i)          1 - w^2        n(n-1)
    shared_denominator   (i,j) vs (p,j)          w^3 - w^2      n(n-1)(n-2)
    num_is_other_den     (i,j) vs (p,i)          w   - w^2      n(n-1)(n-2)
    den_is_other_num     (i,j) vs (j,q)          w   - w^2      n(n-1)(n-2)
    shared_numerator     (i,j) vs (i,q)          w^3 - w^2      n(n-1)(n-2)
    disjoint             no shared index         0              n(n-1)(n-2)(n-3)

with w the population arithmetic-to-harmonic mean ratio, and p, q fresh
indices.  Assembling count * covariance and scaling by n^-4 reproduces the
closed-form variance in the estimator module through entirely different
arithmetic, which is what makes this module a useful cross-check.  The counts
themselves can additionally be validated against brute-force enumeration of
index tuples.

run_verification compares both sides as exact rationals, at the exact value of
each float omega.  Both sides times n^4 are polynomials of degree <= 4 in n and
in omega, so agreement on 5 distinct n by 5 distinct omega proves the law for
every n >= 2 and omega >= 1 (Schwartz, J. ACM 27, 1980), as the default run does.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError, check_at_least, check_int
from .estimator import expected_k_n, var_k_n

__all__ = [
    "TermKind",
    "covariance_term",
    "term_multiplicity",
    "exact_mean_kn",
    "exact_var_kn",
    "brute_force_class_counts",
    "run_verification",
    "VerificationReport",
    "CheckGroup",
]

DEFAULT_OMEGAS = (1.0, 1.1, 2.0, 5.0, 10.0)
DEFAULT_MAX_N = 12
# beyond this the O(n^4) enumeration stops being instant
DEFAULT_BRUTE_FORCE_LIMIT = 8


class TermKind(enum.Enum):
    SELF_PAIR = "self_pair"
    RECIPROCAL_PAIR = "reciprocal_pair"
    SHARED_DENOMINATOR = "shared_denominator"
    NUM_IS_OTHER_DEN = "num_is_other_den"
    DEN_IS_OTHER_NUM = "den_is_other_num"
    SHARED_NUMERATOR = "shared_numerator"
    DISJOINT = "disjoint"


def covariance_term(kind: TermKind, omega: float) -> float:
    """Covariance of one ratio-pair class as a polynomial in omega; exact when
    omega is a Fraction.  Each is written on d = omega - 1, so that a float omega
    neither cancels near 1 nor reads inf - inf where omega**4 overflows."""
    check_at_least(omega, "omega", 1.0)
    w2, d = omega * omega, omega - 1
    if kind is TermKind.SELF_PAIR:
        return w2 * d * (omega + 1)
    if kind is TermKind.RECIPROCAL_PAIR:
        return (1 - omega) * (1 + omega)
    if kind in (TermKind.SHARED_DENOMINATOR, TermKind.SHARED_NUMERATOR):
        return w2 * d
    if kind in (TermKind.NUM_IS_OTHER_DEN, TermKind.DEN_IS_OTHER_NUM):
        return omega * (1 - omega)
    return 0  # DISJOINT


def term_multiplicity(kind: TermKind, n: int) -> int:
    """Closed-form count of ordered pair-of-pairs tuples in one class.

    Classes needing more distinct indices than n provides come out as 0,
    so n = 2 and n = 3 assemble correctly with no special casing.
    """
    n = check_int(n, "n", 2)
    pairs = n * (n - 1)
    if kind in (TermKind.SELF_PAIR, TermKind.RECIPROCAL_PAIR):
        return pairs
    if kind is TermKind.DISJOINT:
        return pairs * (n - 2) * (n - 3)
    return pairs * (n - 2)


def exact_mean_kn(n: int, omega: float) -> Fraction:
    """Mean of the uncorrected relative ratio assembled from pair counts, as an
    exact rational at the exact value of omega.

    The double sum contributes n unit terms plus n(n-1) ratio terms each
    with expectation omega: (1/n^2)(n + n(n-1) omega) - 1.
    """
    n = check_int(n, "n", 2)
    check_at_least(omega, "omega", 1.0)
    return (n + n * (n - 1) * Fraction(omega)) / (n * n) - 1


def exact_var_kn(n: int, omega: float) -> Fraction:
    """Variance of the uncorrected relative ratio by full class enumeration, as
    an exact rational at the exact value of omega."""
    n = check_int(n, "n", 2)
    check_at_least(omega, "omega", 1.0)
    w = Fraction(omega)
    return sum(term_multiplicity(kind, n) * covariance_term(kind, w) for kind in TermKind) / n**4


def _classify(i: int, j: int, p: int, q: int) -> TermKind:
    # callers guarantee i != j and p != q
    if p == i and q == j:
        return TermKind.SELF_PAIR
    if p == j and q == i:
        return TermKind.RECIPROCAL_PAIR
    if q == j:
        return TermKind.SHARED_DENOMINATOR
    if p == i:
        return TermKind.SHARED_NUMERATOR
    if q == i:
        return TermKind.NUM_IS_OTHER_DEN
    if p == j:
        return TermKind.DEN_IS_OTHER_NUM
    return TermKind.DISJOINT


def brute_force_class_counts(n: int) -> dict[TermKind, int]:
    """Count every class by enumerating all (i,j,p,q) with i != j, p != q.

    O(n^4); meant for validating term_multiplicity at small n.
    """
    n = check_int(n, "n", 2)
    counts = {kind: 0 for kind in TermKind}
    pairs = list(itertools.permutations(range(n), 2))
    for i, j in pairs:
        for p, q in pairs:
            counts[_classify(i, j, p, q)] += 1
    return counts


@dataclass
class CheckGroup:
    label: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerificationReport:
    groups: list[CheckGroup]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    @property
    def first_failure(self) -> Optional[str]:
        for g in self.groups:
            if g.failures:
                return g.failures[0]
        return None


def run_verification(
    max_n: int = DEFAULT_MAX_N,
    omegas: Iterable[float] = DEFAULT_OMEGAS,
) -> VerificationReport:
    """Cross-check the enumeration oracle against the closed-form predictions,
    both evaluated exactly at n and at the exact value of each omega."""
    max_n = check_int(max_n, "max_n", 2)
    omegas = list(omegas)
    if not omegas:
        raise DomainError("omegas must be nonempty")

    counts_group = CheckGroup("class counts vs brute-force enumeration")
    for n in range(2, min(max_n, DEFAULT_BRUTE_FORCE_LIMIT) + 1):
        enumerated = brute_force_class_counts(n)
        for kind in TermKind:
            counts_group.checks += 1
            expected = term_multiplicity(kind, n)
            if expected != enumerated[kind]:
                counts_group.failures.append(
                    f"n={n} class={kind.value}: closed-form count {expected} "
                    f"!= enumerated {enumerated[kind]}"
                )

    totals_group = CheckGroup("multiplicity totals")
    for n in range(2, max_n + 1):
        totals_group.checks += 1
        total = sum(term_multiplicity(kind, n) for kind in TermKind)
        expected = (n * (n - 1)) ** 2
        if total != expected:
            totals_group.failures.append(
                f"n={n}: class counts sum to {total}, expected (n(n-1))^2 = {expected}"
            )

    groups = [counts_group, totals_group]
    for noun, enumerated_fn, closed_form in (
        ("mean", exact_mean_kn, expected_k_n),
        ("variance", exact_var_kn, var_k_n),
    ):
        group = CheckGroup(f"{noun} agreement")
        for n in range(2, max_n + 1):
            for omega in omegas:
                group.checks += 1
                got = enumerated_fn(n, omega)
                want = closed_form(n, Fraction(omega) - 1)
                if got != want:
                    group.failures.append(
                        f"n={n} omega={omega:g}: enumeration {noun} {got} vs closed form {want}"
                    )
        groups.append(group)
    return VerificationReport(groups=groups)
