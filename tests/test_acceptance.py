"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo grid is
shared between the unbiasedness and variance-law criteria and uses the
published master seed (the package default, 1729).
"""

import hashlib
import math
import time

import pytest

from lnvar.cli import cells_to_csv, main
from lnvar.estimator import expected_k_n, var_k_n
from lnvar.montecarlo import GridConfig, efficiency_curve, run_grid
from lnvar.oracle import (
    TermKind,
    exact_mean_kn,
    exact_var_kn,
    run_verification,
    term_multiplicity,
)

from _properties import PROPERTY_CHECKS, rel_diff

ACCEPTANCE_OMEGAS = (1.0, 1.1, 2.0, 5.0, 10.0)


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def default_grid():
    start = time.perf_counter()
    cells = run_grid(GridConfig.default())
    return cells, time.perf_counter() - start


def test_c1_oracle_equivalence():
    start = time.perf_counter()
    # the law itself, exactly; then the float closed forms' accuracy
    report = run_verification(12, ACCEPTANCE_OMEGAS)
    assert report.passed, report.first_failure
    for n in range(2, 13):
        for omega in ACCEPTANCE_OMEGAS:
            k = omega - 1.0
            assert rel_diff(exact_var_kn(n, omega), var_k_n(n, k)) <= 1e-12, (n, omega)
            assert rel_diff(exact_mean_kn(n, omega), expected_k_n(n, k)) <= 1e-12, (n, omega)
    for n in range(2, 51):
        total = sum(term_multiplicity(kind, n) for kind in TermKind)
        assert total == (n * (n - 1)) ** 2, n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.3f}s"
    _report(1, "oracle equivalence")


def test_c2_example_n2_crosscheck():
    for k in (0.1, 1.0, 5.0):
        closed = k * k * (k + 2.0) ** 2 / 8.0
        assert rel_diff(var_k_n(2, k), closed) <= 1e-12, k
    _report(2, "n=2 variance cross-check")


def test_c3_unbiasedness(default_grid):
    cells, elapsed = default_grid
    assert len(cells) == 9
    assert elapsed < 120.0, f"grid took {elapsed:.1f}s"
    for c in cells:
        gate = 4.0 * c.se_mean
        assert abs(c.mean_khat - c.cv * c.cv) <= gate, (
            f"n={c.n} cv={c.cv}: mean {c.mean_khat} vs {c.cv * c.cv} "
            f"(gate {gate:.3g})"
        )
    _report(3, "unbiasedness on the default grid")


def test_c4_variance_law(default_grid):
    cells, _ = default_grid
    for c in cells:
        assert c.cv <= 1.0
        assert rel_diff(c.sd_khat, c.pred_sd) <= 0.05, (
            f"n={c.n} cv={c.cv}: sd {c.sd_khat} vs predicted {c.pred_sd}"
        )
    _report(4, "variance law on the default grid")


def test_default_grid_bytes(default_grid):
    # the one pinned digest whose cells hold more runs than one sampling step,
    # or one reduction block; it changed once with the one-pass reduction, in
    # sd_khat and se_mean of (2, 0.5) and (100, 0.5), each now nearer the
    # exact value (sd 0.660 -> 0.340 and 0.849 -> 0.151 ulp); and in every cell but
    # (2, 0.1) with per-n seeds, when the cv cells of one n began to share their draws
    cells, _ = default_grid
    digest = "32f04371ec85e98669ad1666149d81df28fe826e4a24f75f95b6c6cd5c28af0a"
    assert hashlib.sha256(cells_to_csv(cells).encode("ascii")).hexdigest() == digest


def test_c5_efficiency_curve():
    # direct, independent substitution at the three checkpoints
    for s2 in (0.01, 1.0, 2.0):
        expected = s2 * s2 / (math.exp(s2) - 1.0) ** 2
        low = efficiency_curve(s2, 2.0 * s2, 2)[0]
        assert abs(low[0] - s2) <= 1e-12
        assert abs(low[1] - expected) <= 1e-6, s2
    values = [eff for _, eff in efficiency_curve(0.01, 4.0, 100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    _report(5, "efficiency curve")


def test_c6_property_suites():
    for name, check in PROPERTY_CHECKS.items():
        for seed in range(100):
            try:
                check(seed)
            except Exception as exc:
                message = f"property suite {name} fails at seed {seed}: {exc!r}"
                raise AssertionError(message) from exc
        print(f"  property suite {name}: 100/100")
    _report(6, "randomized property suites")


def test_c7_simulate_determinism(tmp_path):
    flags = ["simulate", "--n", "2", "--cv", "0.5", "--runs", "1000", "--seed", "7"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(flags + ["-o", str(first)]) == 0
    assert main(flags + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(7, "simulate determinism")
