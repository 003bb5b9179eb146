"""Randomized property checks shared by the standalone suite and the acceptance gate.

Each check_* function runs one property on inputs generated from a seed, so a
battery is just `for seed in range(100): check_x(seed)`.
"""

import math

import numpy as np
from scipy.integrate import quad

from lnvar.estimator import SampleAccumulator
from lnvar.model import LogNormalParams, derive_moments, params_from_gk, pdf, pdf_gk


def rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _random_sample(rng, min_n=3, max_n=50):
    n = int(rng.integers(min_n, max_n + 1))
    mu = rng.uniform(-1.0, 1.0)
    sigma = rng.uniform(0.4, 1.2)
    return np.exp(rng.normal(mu, sigma, size=n))


def check_am_gm_hm(seed):
    rng = np.random.default_rng(seed)
    values = _random_sample(rng, min_n=2)
    acc = SampleAccumulator.from_values(values)
    h, g, a = acc.harmonic_mean(), acc.g_hat(), acc.arithmetic_mean()
    assert h < g < a, f"ordering violated: h={h}, g={g}, a={a}"


def check_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    values = _random_sample(rng)
    c = 10.0 ** rng.uniform(-300.0, 300.0)
    base = SampleAccumulator.from_values(values)
    scaled = SampleAccumulator.from_values(values * c)
    assert rel_diff(base.k_hat(), scaled.k_hat()) <= 1e-12
    assert rel_diff(base.relative_ratio(), scaled.relative_ratio()) <= 1e-12
    assert rel_diff(base.cv2_conventional(), scaled.cv2_conventional()) <= 1e-12
    assert rel_diff(base.arithmetic_mean() * c, scaled.arithmetic_mean()) <= 1e-12
    assert rel_diff(base.harmonic_mean() * c, scaled.harmonic_mean()) <= 1e-12
    assert rel_diff(base.g_hat() * c, scaled.g_hat()) <= 1e-12


def check_merge_accumulate(seed):
    rng = np.random.default_rng(seed)
    values = _random_sample(rng)
    cut = int(rng.integers(1, len(values)))
    one_pass = SampleAccumulator.from_values(values)
    merged = SampleAccumulator.from_values(values[:cut]).merge(
        SampleAccumulator.from_values(values[cut:])
    )
    assert merged.n == one_pass.n
    assert rel_diff(merged.arithmetic_mean(), one_pass.arithmetic_mean()) <= 1e-12
    assert rel_diff(merged.harmonic_mean(), one_pass.harmonic_mean()) <= 1e-12
    assert rel_diff(merged.k_hat(), one_pass.k_hat()) <= 1e-12
    assert rel_diff(merged.g_hat(), one_pass.g_hat()) <= 1e-12
    assert rel_diff(merged.cv2_conventional(), one_pass.cv2_conventional()) <= 1e-12


def check_params_round_trip(seed):
    rng = np.random.default_rng(seed)
    g = math.exp(rng.uniform(-3.0, 3.0))
    k = 0.0 if seed % 10 == 0 else math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
    moments = derive_moments(params_from_gk(g, k))
    assert rel_diff(moments.g, g) <= 1e-12
    assert rel_diff(moments.k, k) <= 1e-12
    assert rel_diff(moments.alpha * moments.h, g * g) <= 1e-12


def check_pdf_agreement(seed):
    rng = np.random.default_rng(seed)
    g = math.exp(rng.uniform(-2.0, 2.0))
    k = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
    params = params_from_gk(g, k)
    for x in np.geomspace(0.01, 100.0, 13):
        a = pdf_gk(float(x), g, k)
        b = pdf(float(x), params)
        assert rel_diff(a, b) <= 1e-12, f"x={x}: pdf_gk={a!r} pdf={b!r}"


def check_pdf_normalization(seed):
    rng = np.random.default_rng(seed)
    params = LogNormalParams(rng.uniform(-2.0, 2.0), rng.uniform(0.01, 4.0))
    total, _ = quad(pdf, 0.0, np.inf, args=(params,), limit=200)
    assert abs(total - 1.0) <= 1e-8, f"params={params}: integral={total!r}"


PROPERTY_CHECKS = {
    "am_gm_hm_ordering": check_am_gm_hm,
    "scale_invariance": check_scale_invariance,
    "merge_accumulate_equivalence": check_merge_accumulate,
    "params_round_trip": check_params_round_trip,
    "pdf_parameterization_agreement": check_pdf_agreement,
    "pdf_quadrature_normalization": check_pdf_normalization,
}
