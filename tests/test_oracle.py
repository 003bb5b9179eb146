import math
import random
from fractions import Fraction

import pytest

from lnvar import oracle
from lnvar.errors import DomainError
from lnvar.estimator import expected_k_n, var_k_n
from lnvar.model import LogNormalParams, sample
from lnvar.oracle import (
    TermKind,
    brute_force_class_counts,
    covariance_term,
    exact_mean_kn,
    exact_var_kn,
    run_verification,
    term_multiplicity,
)

from _properties import rel_diff

LN2 = math.log(2.0)
OMEGAS = (1.0, 1.1, 2.0, 5.0, 10.0)


class TestCovarianceTerm:
    def test_self_pair_at_two(self):
        assert covariance_term(TermKind.SELF_PAIR, 2.0) == 12.0

    def test_all_vanish_at_one(self):
        for kind in TermKind:
            assert math.copysign(1.0, covariance_term(kind, 1.0)) == 1.0
            assert covariance_term(kind, 1.0) == 0.0

    @pytest.mark.parametrize("omega", [1.0, 2.0, 7.5])
    def test_disjoint_always_zero(self, omega):
        assert covariance_term(TermKind.DISJOINT, omega) == 0.0

    def test_values_at_two(self):
        assert covariance_term(TermKind.RECIPROCAL_PAIR, 2.0) == -3.0
        assert covariance_term(TermKind.SHARED_DENOMINATOR, 2.0) == 4.0
        assert covariance_term(TermKind.SHARED_NUMERATOR, 2.0) == 4.0
        assert covariance_term(TermKind.NUM_IS_OTHER_DEN, 2.0) == -2.0
        assert covariance_term(TermKind.DEN_IS_OTHER_NUM, 2.0) == -2.0

    def test_float_omega_is_within_4_ulp_of_the_exact_value(self):
        # the exact value from the class table, w^4 - w^2 and so on, on the Fraction omega
        exact = {
            TermKind.SELF_PAIR: lambda w: w**4 - w**2,
            TermKind.RECIPROCAL_PAIR: lambda w: 1 - w**2,
            TermKind.SHARED_DENOMINATOR: lambda w: w**3 - w**2,
            TermKind.SHARED_NUMERATOR: lambda w: w**3 - w**2,
            TermKind.NUM_IS_OTHER_DEN: lambda w: w - w**2,
            TermKind.DEN_IS_OTHER_NUM: lambda w: w - w**2,
            TermKind.DISJOINT: lambda w: 0,
        }
        rng = random.Random(19)
        near_one = [1 + 2.0**-52, 1 + 3 * 2.0**-52, 1 + 1e-15]
        near_one += [1 + 10 ** rng.uniform(-15, 0) for _ in range(200)]
        for omega in near_one + [10 ** rng.uniform(0, 76) for _ in range(400)]:
            for kind in TermKind:
                want = float(exact[kind](Fraction(omega)))
                assert abs(covariance_term(kind, omega) - want) <= 4 * math.ulp(want), (kind, omega)
        # past the float range each class reads inf with its sign, never inf - inf = nan
        for omega in (1.4e154, 1e200, 1.7976931348623157e308):
            for kind in TermKind:
                want = exact[kind](Fraction(omega))
                sign = (want > 0) - (want < 0)
                assert covariance_term(kind, omega) == (sign * math.inf if sign else 0)

    def test_rejects_omega_below_one(self):
        with pytest.raises(DomainError):
            covariance_term(TermKind.SELF_PAIR, 0.99)


class TestMultiplicity:
    def test_self_pair_at_two(self):
        assert term_multiplicity(TermKind.SELF_PAIR, 2) == 2

    def test_disjoint_needs_four_indices(self):
        assert term_multiplicity(TermKind.DISJOINT, 2) == 0
        assert term_multiplicity(TermKind.DISJOINT, 3) == 0
        assert term_multiplicity(TermKind.DISJOINT, 4) == 24

    def test_shared_denominator_at_four(self):
        assert term_multiplicity(TermKind.SHARED_DENOMINATOR, 4) == 24

    @pytest.mark.parametrize("n", range(2, 51))
    def test_totals(self, n):
        total = sum(term_multiplicity(kind, n) for kind in TermKind)
        assert total == (n * (n - 1)) ** 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_brute_force(self, n):
        enumerated = brute_force_class_counts(n)
        for kind in TermKind:
            assert term_multiplicity(kind, n) == enumerated[kind], kind


class TestExactMoments:
    def test_var_n2_enumeration(self):
        # two self terms and two reciprocal terms: (2*12 + 2*(-3)) / 16
        assert exact_var_kn(2, 2.0) == (2 * 12.0 + 2 * -3.0) / 16.0 == 1.125

    def test_var_n4(self):
        assert exact_var_kn(4, 2.0) == pytest.approx(0.796875, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_var_vanishes_at_omega_one(self, n):
        assert exact_var_kn(n, 1.0) == 0.0

    def test_mean_values(self):
        assert exact_mean_kn(2, 2.0) == 0.5
        assert exact_mean_kn(5, 1.0) == 0.0
        assert exact_mean_kn(3, 1.5) == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("omega", OMEGAS)
    def test_agreement_with_closed_forms(self, n, omega):
        k = omega - 1.0
        assert rel_diff(exact_var_kn(n, omega), var_k_n(n, k)) <= 1e-12
        assert rel_diff(exact_mean_kn(n, omega), expected_k_n(n, k)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("omega", OMEGAS + (1e300,))
    def test_exact_rationals_equal_closed_forms(self, n, omega):
        k = Fraction(omega) - 1
        var, mean = exact_var_kn(n, omega), exact_mean_kn(n, omega)
        closed_var, closed_mean = var_k_n(n, k), expected_k_n(n, k)
        assert [type(v) for v in (var, mean, closed_var, closed_mean)] == [Fraction] * 4
        assert var == closed_var
        assert mean == closed_mean

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exact_var_kn(1, 2.0)
        with pytest.raises(DomainError):
            exact_mean_kn(3, 0.5)
        for omega in (math.nan, math.inf):
            with pytest.raises(DomainError):
                exact_var_kn(3, omega)


class TestMonteCarloAgreement:
    def test_shared_denominator_covariance(self):
        # empirical Cov(X1/X2, X3/X2) over 1e6 draws at omega = 2 must land
        # within 5 standard errors of omega^3 - omega^2 = 4
        m = 10**6
        p = LogNormalParams(0.0, LN2)
        x1 = sample(p, m, 101)
        x2 = sample(p, m, 102)
        x3 = sample(p, m, 103)
        u = x1 / x2
        v = x3 / x2
        du = u - u.mean()
        dv = v - v.mean()
        prod = du * dv
        cov = float(prod.mean()) * m / (m - 1)
        se = float(prod.std(ddof=1)) / math.sqrt(m)
        assert abs(cov - 4.0) <= 5.0 * se

    def test_ratio_mean(self):
        # products of independent lognormals are lognormal, so the ratio has
        # mean omega = 2 at this variance
        m = 10**6
        p = LogNormalParams(0.0, LN2)
        ratio = sample(p, m, 201) / sample(p, m, 202)
        se = float(ratio.std(ddof=1)) / math.sqrt(m)
        assert abs(float(ratio.mean()) - 2.0) <= 5.0 * se


class TestVerification:
    def test_small_n_passes(self):
        assert run_verification(max_n=2).passed

    @pytest.mark.parametrize("kind", list(TermKind))
    def test_injected_fault_names_class(self, monkeypatch, kind):
        # one class count off by one must fail a check that names the class
        def faulty(k, n):
            return term_multiplicity(k, n) + (k is kind)

        monkeypatch.setattr(oracle, "term_multiplicity", faulty)
        report = run_verification(max_n=6)
        assert not report.passed
        assert kind.value in report.first_failure

    @pytest.mark.parametrize(
        "name, fault, label, checks, first",
        [
            (
                "brute_force_class_counts",
                lambda f: lambda n: {**f(n), TermKind.SHARED_NUMERATOR: 1},
                "class counts vs brute-force enumeration",
                49,
                "n=2 class=shared_numerator: closed-form count 0 != enumerated 1",
            ),
            (
                # past the brute-force limit, and on the class whose covariance is 0
                "term_multiplicity",
                lambda f: lambda k, n: f(k, n) + (k is TermKind.DISJOINT and n == 9),
                "multiplicity totals",
                8,
                "n=9: class counts sum to 5185, expected (n(n-1))^2 = 5184",
            ),
            (
                "expected_k_n",
                lambda f: lambda n, k: f(n, k) + 1,
                "mean agreement",
                8,
                "n=2 omega=2: enumeration mean 1/2 vs closed form 3/2",
            ),
            (
                "var_k_n",
                lambda f: lambda n, k: f(n, k) + 1,
                "variance agreement",
                8,
                "n=2 omega=2: enumeration variance 9/8 vs closed form 17/8",
            ),
        ],
        ids=["counts", "totals", "mean", "variance"],
    )
    def test_each_group_states_its_first_failure(
        self, monkeypatch, name, fault, label, checks, first
    ):
        monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
        report = run_verification(max_n=9, omegas=[2.0])
        [group] = [g for g in report.groups if not g.passed]
        assert (group.label, group.checks, group.failures[0]) == (label, checks, first)
        assert report.first_failure == first

    def test_rejects_bad_max_n(self):
        with pytest.raises(DomainError):
            run_verification(max_n=1)

    def test_rejects_empty_omegas(self):
        with pytest.raises(DomainError, match="omegas"):
            run_verification(omegas=[])

    def test_one_class_off_by_2_pow_minus_50_fails(self, monkeypatch):
        # a covariance class scaled by 1 + 2^-50 is within any float tolerance
        # of the closed form, but not equal to it
        term = covariance_term

        def faulty(kind, w):
            scale = 1 + Fraction(1, 2**50) if kind is TermKind.SHARED_NUMERATOR else 1
            return term(kind, w) * scale

        monkeypatch.setattr(oracle, "covariance_term", faulty)
        report = run_verification(max_n=3, omegas=[1.1])
        assert [g.label for g in report.groups if not g.passed] == ["variance agreement"]
        assert report.first_failure.startswith("n=3 omega=1.1: enumeration variance ")

    @pytest.mark.parametrize(
        "max_n, omega", [(12, 1e300), (3, 1e200), (2, 1e154), (2, 1e77), (2, 1.7e308)]
    )
    def test_omega_beyond_float_range_passes(self, max_n, omega):
        # exact rationals do not overflow, so these omegas get checked, not refused
        assert run_verification(max_n=max_n, omegas=[2.0, omega]).passed
