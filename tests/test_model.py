import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from lnvar.errors import MAX_FLOAT_ARRAY_LEN, DegenerateDistributionError, DomainError
from lnvar.model import (
    LogNormalParams,
    derive_moments,
    params_from_gk,
    pdf,
    pdf_gk,
    sample,
)

from _properties import rel_diff

LN2 = math.log(2.0)


class TestParams:
    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            LogNormalParams(0.0, -0.1)

    @pytest.mark.parametrize(
        "mu,s2",
        [
            (math.nan, 1.0),
            (0.0, math.inf),
            (math.inf, 1.0),
            # ints past the float range, where math.isfinite and float() overflow
            pytest.param(10**400, 1.0, id="int-mu-past-float-range"),
            pytest.param(0.0, 10**400, id="int-s2-past-float-range"),
        ],
    )
    def test_rejects_non_finite(self, mu, s2):
        with pytest.raises(DomainError):
            LogNormalParams(mu, s2)


class TestDeriveMoments:
    def test_point_mass(self):
        m = derive_moments(LogNormalParams(0.0, 0.0))
        assert (m.alpha, m.h, m.g) == (1.0, 1.0, 1.0)
        assert (m.beta2, m.cv2, m.k) == (0.0, 0.0, 0.0)
        assert m.omega == 1.0

    def test_log_two_variance(self):
        m = derive_moments(LogNormalParams(0.0, LN2))
        assert m.omega == pytest.approx(2.0, rel=1e-15)
        assert m.k == pytest.approx(1.0, rel=1e-15)
        assert m.cv2 == pytest.approx(1.0, rel=1e-15)
        assert m.g == 1.0
        assert m.alpha == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert m.h == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_location_shift_scales_g_only(self):
        m = derive_moments(LogNormalParams(1.0, LN2))
        assert m.g == pytest.approx(math.e, rel=1e-15)
        assert m.alpha == pytest.approx(math.e * math.sqrt(2.0), rel=1e-15)
        assert m.h == pytest.approx(math.e / math.sqrt(2.0), rel=1e-15)
        assert m.k == pytest.approx(1.0, rel=1e-15)

    def test_omega_is_k_plus_one_exactly(self):
        for s2 in (0.0, 1e-8, 0.3, 2.0, 10.0):
            m = derive_moments(LogNormalParams(0.2, s2))
            assert m.omega == m.k + 1.0
            assert m.cv2 == m.k

    def test_overflow_names_field(self):
        for mu, s2, field in [
            (0.0, 2000.0, "alpha"),
            (-800.0, 0.0, "g"),
            (0.0, 710.0, "k"),  # expm1 overflows
            (330.0, 100.0, "beta2"),  # exp(2 mu + s2) overflows
            (300.0, 100.0, "beta2"),  # exp(2 mu + s2) * k overflows
        ]:
            with pytest.raises(DomainError, match=f"^{field} "):
                derive_moments(LogNormalParams(mu, s2))

    def test_ordering_strict_when_spread(self):
        m = derive_moments(LogNormalParams(0.5, 0.8))
        assert m.alpha > m.g > m.h


class TestParamsFromGk:
    def test_identity(self):
        p = params_from_gk(1.0, 0.0)
        assert (p.mu_y, p.sigma2_y) == (0.0, 0.0)

    def test_unit_ratio(self):
        p = params_from_gk(1.0, 1.0)
        assert p.mu_y == 0.0
        assert p.sigma2_y == pytest.approx(LN2, rel=1e-15)

    def test_near_e(self):
        p = params_from_gk(2.718282, math.e - 1.0)
        assert p.mu_y == pytest.approx(1.0, abs=1e-6)
        assert p.sigma2_y == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("k", [0.0, 0.01, 1.0, 10.0])
    def test_round_trip_grid(self, g, k):
        m = derive_moments(params_from_gk(g, k))
        assert rel_diff(m.g, g) <= 1e-12
        assert rel_diff(m.k, k) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            params_from_gk(0.0, 1.0)
        with pytest.raises(DomainError):
            params_from_gk(-2.0, 1.0)
        with pytest.raises(DomainError):
            params_from_gk(1.0, -0.5)
        with pytest.raises(DomainError, match="^k must be <= 1.7976931348623157e[+]308"):
            params_from_gk(1.0, 10**400)


class TestPdf:
    def test_at_geometric_mean(self):
        assert pdf(1.0, LogNormalParams(0.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
        )

    def test_at_e(self):
        expected = math.exp(-0.5) / (math.e * math.sqrt(2.0 * math.pi))
        assert pdf(math.e, LogNormalParams(0.0, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_normalizes(self):
        p = LogNormalParams(0.3, 0.7)
        total, _ = quad(pdf, 0.0, np.inf, args=(p,), limit=200)
        assert abs(total - 1.0) <= 1e-8

    @pytest.mark.parametrize("s2", [0.01, 0.25, 1.0, 4.0])
    def test_normalizes_across_variances(self, s2):
        p = LogNormalParams(0.0, s2)
        total, _ = quad(pdf, 0.0, np.inf, args=(p,), limit=200)
        assert abs(total - 1.0) <= 1e-8

    def test_domain_errors(self):
        p = LogNormalParams(0.0, 1.0)
        with pytest.raises(DomainError):
            pdf(0.0, p)
        with pytest.raises(DomainError):
            pdf(-1.0, p)
        with pytest.raises(DomainError, match="^x must be <= 1.7976931348623157e[+]308"):
            pdf(10**400, p)
        with pytest.raises(DegenerateDistributionError):
            pdf(1.0, LogNormalParams(0.0, 0.0))


class TestPdfGk:
    def test_matches_standard_form(self):
        assert pdf_gk(1.0, 1.0, math.e - 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("g,k", [(1.0, 0.5), (2.5, 3.0), (0.2, 0.05)])
    def test_peak_at_geometric_mean(self, g, k):
        expected = 1.0 / (g * math.sqrt(2.0 * math.pi * math.log1p(k)))
        assert pdf_gk(g, g, k) == pytest.approx(expected, rel=1e-14)

    def test_agrees_with_converted_params(self):
        p = params_from_gk(1.5, 0.4)
        assert rel_diff(pdf_gk(2.0, 1.5, 0.4), pdf(2.0, p)) <= 1e-12

    def test_agreement_on_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            g = math.exp(rng.uniform(-2.0, 2.0))
            k = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
            p = params_from_gk(g, k)
            for x in np.geomspace(0.01, 100.0, 9):
                assert rel_diff(pdf_gk(float(x), g, k), pdf(float(x), p)) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            pdf_gk(1.0, 1.0, 0.0)


class TestSample:
    def test_zero_variance_is_constant(self):
        xs = sample(LogNormalParams(0.0, 0.0), 5, 12345)
        assert list(xs) == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_deterministic(self):
        p = LogNormalParams(0.1, 0.5)
        a = sample(p, 1000, 77)
        b = sample(p, 1000, 77)
        assert np.array_equal(a, b)

    def test_blocks_from_one_generator_equal_one_draw(self):
        p = LogNormalParams(0.1, 0.5)
        rng = np.random.default_rng(77)
        blocks = [sample(p, k, rng) for k in (1, 999, 2**14, 5)]
        assert np.array_equal(np.concatenate(blocks), sample(p, 2**14 + 1005, 77))

    def test_different_seeds_differ(self):
        p = LogNormalParams(0.1, 0.5)
        assert not np.array_equal(sample(p, 100, 1), sample(p, 100, 2))

    def test_all_positive(self):
        xs = sample(LogNormalParams(-1.0, 2.0), 10000, 5)
        assert (xs > 0).all()

    def test_log_mean_approaches_mu(self):
        # law of large numbers on the generator's own output:
        # sd of the log-mean is 0.5/1000, gate is 4 of those
        xs = sample(LogNormalParams(0.0, 0.25), 10**6, 2718)
        assert abs(float(np.log(xs).mean())) <= 4.0 * (0.5 / 1000.0)

    def test_rejects_zero_length(self):
        with pytest.raises(DomainError):
            sample(LogNormalParams(0.0, 1.0), 0, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            sample(LogNormalParams(0.0, 1.0), 3, -1)

    @pytest.mark.parametrize(
        "mu, sigma2",
        [(800.0, 1.0), (-800.0, 1.0), (-740.0, 0.0)],
        ids=["overflow", "underflow", "reciprocal-overflow"],
    )
    def test_rejects_draws_beyond_float_range(self, mu, sigma2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float range"):
                sample(LogNormalParams(mu, sigma2), 2, 0)

    @pytest.mark.parametrize("mu", [700.0, -700.0])
    def test_accepts_draws_near_float_range_ends(self, mu):
        for x in sample(LogNormalParams(mu, 0.0), 2, 0).tolist():
            assert rel_diff(x, math.exp(mu)) <= 1e-15

    def test_rejects_length_no_array_can_hold(self):
        with pytest.raises(DomainError, match="n must be <="):
            sample(LogNormalParams(0.0, 1.0), MAX_FLOAT_ARRAY_LEN + 1, 0)
