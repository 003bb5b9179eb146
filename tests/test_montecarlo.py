import math
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lnvar import montecarlo
from lnvar.errors import BUDGET_ENV_VAR, BudgetExceededError, DomainError
from lnvar.estimator import expected_k_n, kn_from_sums, large_sample_efficiency, measurement_cost
from lnvar.estimator import sd_k_hat, var_k_hat
from lnvar.model import params_from_gk, sample
from lnvar.montecarlo import (
    DEFAULT_CV_VALUES,
    DEFAULT_MASTER_SEED,
    DEFAULT_N_VALUES,
    DEFAULT_RUNS_CAP,
    RUNS_NUMERATOR,
    SimulationCell,
    derive_cell_seed,
    efficiency_curve,
    resolve_runs,
    run_cell,
    run_grid,
)
from lnvar.oracle import TermKind, brute_force_class_counts, exact_mean_kn, exact_var_kn
from lnvar.oracle import run_verification, term_multiplicity

from _properties import rel_diff


class TestResolveRuns:
    def test_default_rule(self):
        assert resolve_runs(2) == 10**7
        assert resolve_runs(11) == 10**6
        assert resolve_runs(100) == RUNS_NUMERATOR // 99 == 101010

    def test_cap(self):
        assert resolve_runs(2, runs_cap=10**6) == 10**6
        assert resolve_runs(100, runs_cap=10**6) == 101010

    def test_override_wins(self):
        assert resolve_runs(2, runs_override=500, runs_cap=10**6) == 500


class TestCellSeeds:
    def test_deterministic(self):
        assert derive_cell_seed(42, 3) == derive_cell_seed(42, 3)

    def test_distinct_across_cells_and_masters(self):
        seeds = {derive_cell_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_cell_seed(42, 0) != derive_cell_seed(43, 0)

    def test_fits_in_64_bits(self):
        for i in range(10):
            assert 0 <= derive_cell_seed(7, i) < 2**64


def _estimates(n, cv, runs, seed):
    """A cell's per-run estimates, redrawn in one piece."""
    sigma = math.sqrt(math.log1p(cv * cv))
    x = np.exp(np.random.default_rng(seed).normal(0.0, sigma, size=(runs, n)))
    return kn_from_sums(x.sum(axis=1), (1.0 / x).sum(axis=1), n) * (n / (n - 1.0))


def _traced_peak(f, *args):
    """The peak of the memory tracemalloc traces while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _within_ulps_of_exact_sd(sd, estimates, ulps):
    """Whether sd is within ulps ulp of the exact sample sd of estimates, on
    the integers m * 2**53 of their frexp mantissas."""
    m, e = np.frexp(estimates)
    e = e.astype(np.int64) - 53
    base = int(e.min())
    ints = [a << b for a, b in zip((m * 2.0**53).astype(np.int64).tolist(), (e - base).tolist())]
    r, s1 = len(ints), sum(ints)
    # the variance is (r * sum(ints**2) - s1**2) / (r * (r - 1)) * 4**base
    num, den = r * sum(i * i for i in ints) - s1 * s1, r * (r - 1)

    def square_vs_var(x):
        a, b = x.as_integer_ratio()
        lhs, rhs = a * a * den << max(0, -2 * base), num * b * b << max(0, 2 * base)
        return (lhs > rhs) - (lhs < rhs)

    step = ulps * math.ulp(sd)
    return square_vs_var(sd - step) <= 0 <= square_vs_var(sd + step)


class TestRowSums:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_equals_numpys_sum_bit_for_bit(self, n):
        # pins numpy's summation order along a row, on which the column adds rely
        rng = np.random.default_rng(n)
        for rows in (1, 3, 101, 4097):
            x = rng.lognormal(0.0, 3.0, size=(rows, n))
            got = montecarlo._row_sums(x, np.empty(rows))
            assert got.tobytes() == np.sum(x, axis=-1).tobytes()


class TestRunCell:
    def test_deterministic(self):
        a = run_cell(5, 0.5, 2000, 99)
        b = run_cell(5, 0.5, 2000, 99)
        assert a == b

    def test_prediction_columns_use_estimator_formulas(self):
        c = run_cell(7, 0.3, 500, 4)
        assert c.pred_mean == 0.3 * 0.3
        assert c.pred_sd == sd_k_hat(7, 0.3 * 0.3)
        assert c.se_mean == c.sd_khat / math.sqrt(c.runs)

    def test_near_degenerate_population(self):
        # cv -> 0 proxy: the tiny true value must be recovered to within a
        # ten-standard-error gate
        cell = run_cell(2, 1e-6, 1000, 31)
        gate = 10.0 * sd_k_hat(2, 1e-12) / math.sqrt(1000)
        assert abs(cell.mean_khat - 1e-12) <= gate

    def test_location_invariance(self):
        # the ratio statistic is scale free, so shifting the log-space mean
        # must not move the summary beyond fp noise
        base = run_cell(5, 0.5, 2000, 99, mu_y=0.0)
        shifted = run_cell(5, 0.5, 2000, 99, mu_y=3.0)
        assert rel_diff(base.mean_khat, shifted.mean_khat) <= 1e-12
        assert rel_diff(base.sd_khat, shifted.sd_khat) <= 1e-12

    @pytest.mark.parametrize("mu", [-700.0, -3.0, 0.25, 3.0, 705.0])
    @pytest.mark.parametrize("sigma", [1e-6, 0.47, 2.1])
    def test_scaled_standard_normals_are_rng_normal(self, mu, sigma):
        # run_cell reads its draws as z * sigma + mu_y, two rounded ufunc passes;
        # a numpy whose rng.normal fused loc + scale * z would break this identity
        # and with it every one-cv digest away from mu_y = 0
        z = np.empty((4096, 3))
        np.random.default_rng(17).standard_normal(out=z)
        x = np.add(np.multiply(z, sigma), mu)
        assert np.array_equal(x, np.random.default_rng(17).normal(mu, sigma, z.shape))

    def test_budget_refusal_reports_cost(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "5000")
        with pytest.raises(BudgetExceededError) as exc_info:
            run_cell(10, 0.5, 1000, 1)
        assert exc_info.value.cost == 10_000
        assert exc_info.value.budget == 5000
        assert "10000" in str(exc_info.value)

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        with pytest.raises(BudgetExceededError):
            run_cell(10, 0.5, 1000, 1)
        for bad in ("not-a-number", "-5"):
            monkeypatch.setenv(BUDGET_ENV_VAR, bad)
            with pytest.raises(DomainError, match=BUDGET_ENV_VAR):
                run_cell(10, 0.5, 1000, 1)

    def test_slow_convergence_warning(self):
        with pytest.warns(RuntimeWarning, match="cv"):
            run_cell(4, 2.5, 100, 8)

    def test_validation(self):
        with pytest.raises(DomainError):
            run_cell(1, 0.5, 100, 1)
        with pytest.raises(DomainError):
            run_cell(4, 0.0, 100, 1)
        with pytest.raises(DomainError):
            run_cell(4, 0.5, 1, 1)

    @pytest.mark.parametrize("n", [2, 7])
    def test_reduction_equals_fsum_of_the_estimates(self, n):
        # runs span several sampling steps and reduction blocks, which at n=7
        # (4681 runs a step) do not line up; the per-run estimates are redrawn
        # here in one piece, since a normal stream is the same for any split
        cv, runs, seed = 0.7, 2 * montecarlo._BLOCK_RUNS + 5, 41
        cell = run_cell(n, cv, runs, seed)
        estimates = _estimates(n, cv, runs, seed)
        assert cell.mean_khat == math.fsum(estimates.tolist()) / runs
        assert _within_ulps_of_exact_sd(cell.sd_khat, estimates, 2)

    @pytest.mark.parametrize(
        "n, cv, runs, seed",
        # spread estimates, or a mean far from cv^2, where squares about cv^2
        # would be 363, 2.7 and 5e15 ulp off
        [(3, 5.0, 2, 230127785), (10, 2.0, 2, 642585259), (2, 1e40, 1000, 858379749)],
    )
    def test_sd_is_within_2_ulp_at_the_edges(self, n, cv, runs, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cell = run_cell(n, cv, runs, seed)
        assert _within_ulps_of_exact_sd(cell.sd_khat, _estimates(n, cv, runs, seed), 2)

    def test_equal_estimates_have_sd_zero(self):
        # at cv = 1e-9 both runs' sums round to a ratio of exactly 1
        assert np.all(_estimates(2, 1e-9, 2, 259047510) == 0.0)
        assert run_cell(2, 1e-9, 2, 259047510).sd_khat == 0.0

    def test_cells_do_not_depend_on_the_block_size(self, monkeypatch):
        specs = [(2, 0.5, 3 * 2**16 + 7, 5), (7, 1.0, 2**17 + 1, 6), (100, 0.1, 40_000, 7)]
        cells = [run_cell(*spec) for spec in specs]
        monkeypatch.setattr(montecarlo, "_BLOCK_RUNS", montecarlo._BLOCK_RUNS // 4)
        assert [run_cell(*spec) for spec in specs] == cells

    def test_memory_is_flat_in_runs(self):
        small = _traced_peak(run_cell, 2, 0.5, 2**20, 3)
        assert small <= 4 * 2**20
        assert _traced_peak(run_cell, 2, 0.5, 2**22, 3) <= small + 2**19

    @pytest.mark.parametrize("n, mib", [(2, 2.4), (10, 1.45), (100, 1.42)])
    def test_working_set_of_three_cvs(self, n, mib):
        # about 10% above the traced peaks of one x buffer, k_hat formed in its block, and
        # 2**14-value exact-sum chunks (2.20, 1.31 and 1.29 MiB; numpy 2.4)
        assert _traced_peak(run_cell, n, (0.1, 0.5, 1.0), 2**18, 3) <= mib * 2**20

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_a_sequence_of_cvs_gives_each_cv_its_cell(self, n):
        # past one per-cv block (_BLOCK_RUNS // 3 runs), and again as a one-element list
        cvs, runs = [0.1, 1.9, 0.7], 2**17 + 5
        assert run_cell(n, cvs, runs, 13) == [run_cell(n, cv, runs, 13) for cv in cvs]
        assert run_cell(n, (0.7,), 3000, 13) == [run_cell(n, 0.7, 3000, 13)]
        # any number is one cv, a Decimal too
        assert run_cell(n, Decimal("0.7"), 3000, 13) == run_cell(n, 0.7, 3000, 13)

    def test_a_zero_dimensional_array_is_one_cv(self):
        assert run_cell(2, np.array(0.5), 100, 1) == run_cell(2, 0.5, 100, 1)

    def test_a_bytearray_is_one_cv_and_a_memoryview_the_cvs(self):
        # a bytearray is refused as bytes is, not read as its byte values (cv = 97)
        with pytest.raises(DomainError, match=r"^cv must be a real number, got bytearray\(b'a'\)$"):
            run_cell(2, bytearray(b"a"), 10, 1)
        # a memoryview of an array of cvs runs those cvs
        cvs = memoryview(np.array([0.5, 1.0]))
        assert run_cell(2, cvs, 100, 1) == run_cell(2, [0.5, 1.0], 100, 1)

    def test_any_iterable_is_read_as_the_cvs(self):
        assert run_cell(2, (c for c in (0.5, 1.0)), 100, 1) == run_cell(2, (0.5, 1.0), 100, 1)
        assert run_cell(2, {0.5}, 100, 1) == run_cell(2, [0.5], 100, 1)

    def test_a_sequence_of_cvs_draws_once_and_warns_per_cv(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10000")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_cell(10, [2.5, 0.5, 3.0], 1000, 1)
        assert [str(w.message)[:6] for w in caught] == ["cv=2.5", "cv=3 >"]
        with pytest.raises(BudgetExceededError) as exc_info:
            run_cell(10, [0.5, 1.0], 1001, 1)
        assert exc_info.value.cost == 10_010
        with pytest.raises(DomainError, match="^cv must be a number or a nonempty sequence"):
            run_cell(10, [], 1000, 1)

    @pytest.mark.parametrize(
        "cvs, named", [([0.5, 1.0], 1), ([1.0, 1.5], 1), ([1.5, 1.0, 0.5], 1.5)]
    )
    def test_a_range_failure_names_the_first_cv_to_fail(self, cvs, named):
        # at mu_y = 707.5, cv = 0.5 first fails at run 45192, in the third sampling step,
        # and cv = 1 and cv = 1.5 at run 4, in the first
        with pytest.raises(DomainError, match=rf"^mu_y=707.5, cv={named:g}: "):
            run_cell(2, cvs, 10**5, 3, mu_y=707.5)

    def test_population_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^cv must be <="):
            run_cell(2, 10**400, 10, 1)

    @pytest.mark.parametrize(
        "mu_y, cv", [(705.0, 3.0), (-705.0, 3.0), (709.0, 1.0), (-744.0, 0.1)]
    )
    def test_estimates_beyond_float_range_raise(self, mu_y, cv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=rf"^mu_y={mu_y:g}, cv={cv:g}: "):
                run_cell(2, cv, 10**5, 3, mu_y=mu_y)
        # only the cv > 2 advisory, no numpy warning
        assert [str(w.message)[:3] for w in caught] == ["cv="] * (cv > 2)

    @pytest.mark.parametrize(
        "mu_y, cvs, named",
        [(707.5, [0.5, 1.0], 1), (707.5, [1.5, 1.0, 0.5], 1.5), (709.0, [1.0], 1),
         (-744.0, [0.1], 0.1)],
    )
    def test_a_range_failure_is_refused_before_the_exact_sums(self, monkeypatch, mu_y, cvs, named):
        # the step that makes an inf or a nan estimate refuses it; ExactSum.of never sees one
        class FiniteOnly(montecarlo.ExactSum):
            @classmethod
            def of(cls, values, shift=None):
                assert np.isfinite(values).all()
                return super().of(values, shift)

        monkeypatch.setattr(montecarlo, "ExactSum", FiniteOnly)
        with pytest.raises(DomainError, match=rf"^mu_y={mu_y:g}, cv={named:g}: the draws or "):
            run_cell(2, cvs, 10**5, 3, mu_y=mu_y)

    @pytest.mark.parametrize(
        "cv, mu_y, name",
        [
            (1e300, 0.0, "cv"),
            (1.5e154, 0.0, "cv"),
            (0.5, 800.0, "mu_y"),
            (0.5, -800.0, "mu_y"),
            pytest.param(10**400, 0.0, "cv", id="int-past-float-cv"),
        ],
    )
    def test_population_beyond_float_range_names_the_parameter(self, cv, mu_y, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            run_cell(2, cv, 10, 1, mu_y=mu_y)
        with pytest.raises(DomainError, match=f"^{name} must be"):
            run_grid([2], [cv], mu_y=mu_y)

    def test_population_range_edges_are_accepted(self):
        # through the check run_grid and run_cell make; sampling there would overflow
        assert montecarlo._check_population([montecarlo._CV_MAX], montecarlo._MU_Y_MAX) == (
            (montecarlo._CV_MAX,), montecarlo._MU_Y_MAX
        )
        assert montecarlo._check_population([0.5], montecarlo._MU_Y_MIN) == (
            (0.5,), montecarlo._MU_Y_MIN
        )


class TestGridDefaults:
    def test_default_layout(self):
        assert DEFAULT_N_VALUES == (2, 10, 100)
        assert DEFAULT_CV_VALUES == (0.1, 0.5, 1.0)
        assert DEFAULT_RUNS_CAP == 10**6
        assert DEFAULT_MASTER_SEED == 1729
        # run_grid's defaults: master seed 1729, mu_y 0
        (cell,) = run_grid([2], [0.5], runs_override=2)
        assert cell.seed == derive_cell_seed(1729, 0)
        assert cell == run_cell(2, 0.5, 2, cell.seed, mu_y=0.0)

    def test_validation(self, monkeypatch):
        # each refused before any cell runs
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(montecarlo, "run_cell", no_cell)
        with pytest.raises(DomainError, match="^n_values and cv_values must be nonempty$"):
            run_grid([], [0.5])
        with pytest.raises(DomainError, match="^n must be >= 2, got 1$"):
            run_grid([1], [0.5])
        with pytest.raises(DomainError, match="^cv must be positive and finite, got -0.5$"):
            run_grid([4], [-0.5])
        with pytest.raises(DomainError, match="^master_seed must be >= 0, got -1$"):
            run_grid([4], [0.5], master_seed=-1)
        with pytest.raises(DomainError, match="^runs_override must be >= 2, got 1$"):
            run_grid([4], [0.5], runs_override=1)
        with pytest.raises(DomainError, match="^runs_cap must be >= 2, got 1$"):
            run_grid([4], [0.5], runs_cap=1)
        with pytest.raises(DomainError, match="^runs_override must be >= 2, got 1$"):
            run_grid([4], [0.5], runs_override=1, runs_cap=1)


class TestRunGrid:
    def test_one_cell_per_pair_with_derived_seeds(self):
        cells = run_grid([2, 3], [0.2, 0.7], master_seed=5, runs_override=200)
        assert [(c.n, c.cv) for c in cells] == [
            (2, 0.2),
            (2, 0.7),
            (3, 0.2),
            (3, 0.7),
        ]
        # one seed per n, shared by its cv cells
        s0, s1 = derive_cell_seed(5, 0), derive_cell_seed(5, 1)
        assert [c.seed for c in cells] == [s0, s0, s1, s1]
        assert all(c.runs == 200 for c in cells)

    def test_runs_rule_applies_per_n(self):
        cells = run_grid([11], [0.5], runs_cap=500)
        assert cells[0].runs == 500
        assert resolve_runs(11) == 10**6

    def test_budget_propagates(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        with pytest.raises(BudgetExceededError):
            run_grid([10], [0.5], runs_override=1000)

    def test_uncapped_rule_runs_ten_million_at_n2(self):
        cells = run_grid([2], [0.1])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.runs == 10**7
        assert abs(cell.mean_khat - 0.01) <= 4.0 * cell.se_mean


class TestGridWorkers:
    """run_grid's threads: results and errors must not depend on their count."""

    GRID = dict(n_values=(2, 5, 30), cv_values=(0.2, 0.6, 1.1), master_seed=3, runs_override=3000)

    def test_cells_match_row_major_loop(self, monkeypatch):
        reference = [
            run_cell(n, cv, 3000, derive_cell_seed(3, index))
            for index, n in enumerate(self.GRID["n_values"])
            for cv in self.GRID["cv_values"]
        ]
        for workers in (1, 2, 9):
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
            assert run_grid(**self.GRID) == reference

    def test_cells_go_through_module_run_cell(self, monkeypatch):
        # a patched montecarlo.run_cell is what the workers call, once per n with every cv
        calls = []

        def recording(n, cv, runs, seed, *args, **kwargs):
            calls.append((n, cv, runs, seed))
            return run_cell(n, cv, runs, seed, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 9)
        monkeypatch.setattr(montecarlo, "run_cell", recording)
        cells = run_grid(**self.GRID)
        assert sorted(calls) == [
            (n, self.GRID["cv_values"], 3000, derive_cell_seed(3, index))
            for index, n in enumerate(self.GRID["n_values"])
        ]
        assert [c.seed for c in cells] == [seed for *_, seed in sorted(calls) for _ in range(3)]

    @pytest.mark.parametrize("workers", [1, 2, 9])
    def test_lowest_failing_cell_raises(self, monkeypatch, workers):
        # cells 1 and 2 are over the budget of 3000 draws: 40 x 100 and 50 x 100
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
        monkeypatch.setenv(BUDGET_ENV_VAR, "3000")
        threads_before = threading.active_count()
        with pytest.raises(BudgetExceededError) as exc_info:
            run_grid([2, 40, 50, 3], [0.5], runs_override=100)
        assert (exc_info.value.cost, exc_info.value.budget) == (4000, 3000)
        assert threading.active_count() == threads_before


def test_sd_agreement_in_heavy_tail_band():
    # 1 < cv <= 2 converges slowly; the analytic sd must still match to 10%
    cell = run_cell(10, 2.0, 2 * 10**5, 17)
    assert rel_diff(cell.sd_khat, cell.pred_sd) <= 0.10


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_grid([2.7], [0.5]), "n must be an integer"),
        (lambda: resolve_runs(2.5), "n must be an integer"),
        (lambda: expected_k_n(2.5, 1.0), "n must be an integer"),
        (lambda: var_k_hat(2.5, 1.0), "n must be an integer"),
        (lambda: run_cell(2.5, 0.5, 10, 1), "n must be an integer"),
        (lambda: sample(params_from_gk(1.0, 0.5), 2.5, 1), "n must be an integer"),
        (lambda: resolve_runs(Fraction(5, 2)), "n must be an integer"),
        (lambda: resolve_runs(np.float64(3.0)), "n must be an integer"),
        (lambda: resolve_runs(10, runs_override=2.5), "runs_override must be an integer"),
        (lambda: resolve_runs(10, runs_override=1), "runs_override must be >= 2"),
        (lambda: resolve_runs(10, runs_cap=0), "runs_cap must be >= 2"),
        (lambda: derive_cell_seed(1.5, 0), "master_seed must be an integer"),
        (lambda: derive_cell_seed(0, 1.5), "cell_index must be an integer"),
        (lambda: derive_cell_seed(-1, 0), "master_seed must be >= 0"),
    ],
    ids=["grid-n", "resolve-runs", "expected-k-n", "var-k-hat", "run-cell", "sample",
         "fraction", "numpy-float", "runs-override", "runs-override-below-2", "runs-cap-below-2",
         "master-seed", "cell-index", "negative-master-seed"],
)
def test_a_count_that_is_not_an_integer_is_refused(call, message):
    # nor one below its minimum; the message names the argument
    with pytest.raises(DomainError, match=f"^{message}, got "):
        call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64, Fraction])
def test_a_numpy_count_acts_as_the_equal_python_int(kind):
    # in 64 bits n**4 wraps from n = 55,109 and runs * n at 2**64, with only a RuntimeWarning;
    # a whole Fraction reaches numpy and range as an int too
    n = kind(10**5)
    multiplicity = term_multiplicity(TermKind.DISJOINT, n)
    assert type(multiplicity) is int and multiplicity == 99994000109999400000
    assert exact_var_kn(n, 2.0) == exact_var_kn(10**5, 2.0)
    assert exact_mean_kn(n, 2.0) == exact_mean_kn(10**5, 2.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        run_cell(kind(4), 0.5, kind(2**62), 1)
    assert exc_info.value.cost == 2**64
    cell = run_cell(kind(2), 0.5, kind(10), kind(1))
    assert cell == run_cell(2, 0.5, 10, 1)
    assert [type(v) for v in (cell.n, cell.runs, cell.seed)] == [int] * 3
    assert type(measurement_cost(kind(7), "conventional")) is int
    params = params_from_gk(1.0, 0.5)
    assert np.array_equal(sample(params, kind(7), kind(7)), sample(params, 7, 7))
    (grid_cell,) = run_grid(
        [kind(2)], [np.float64(0.5)], master_seed=kind(3), runs_override=kind(10),
        runs_cap=kind(20),
    )
    assert grid_cell == run_cell(2, 0.5, 10, derive_cell_seed(3, 0))
    stored = (grid_cell.n, grid_cell.cv, grid_cell.runs, grid_cell.seed)
    assert [type(v) for v in stored] == [int, float, int, int]
    assert efficiency_curve(1.0, 2.0, kind(3)) == efficiency_curve(1.0, 2.0, 3)
    assert derive_cell_seed(kind(3), kind(0)) == derive_cell_seed(3, 0)
    assert brute_force_class_counts(kind(3)) == brute_force_class_counts(3)
    assert run_verification(max_n=kind(3)) == run_verification(max_n=3)


class TestEfficiencyCurve:
    def test_endpoint_values(self):
        curve = efficiency_curve(1.0, 2.0, 2, "log")
        assert curve[0][0] == 1.0
        assert curve[0][1] == pytest.approx(1.0 / (math.e - 1.0) ** 2, rel=1e-14)
        assert curve[-1][1] == pytest.approx(
            4.0 / (math.exp(2.0) - 1.0) ** 2, rel=1e-14
        )

    def test_small_variance_value(self):
        curve = efficiency_curve(0.01, 1.0, 2, "linear")
        assert curve[0][1] == pytest.approx(1e-4 / (math.expm1(0.01)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_strictly_decreasing(self, spacing):
        values = [eff for _, eff in efficiency_curve(0.01, 4.0, 100, spacing)]
        assert len(values) == 100
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_pointwise_function(self):
        for s2, eff in efficiency_curve(0.05, 3.0, 20):
            assert eff == large_sample_efficiency(s2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            efficiency_curve(4.0, 1.0, 10)
        with pytest.raises(DomainError):
            efficiency_curve(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            efficiency_curve(0.1, 1.0, 1)
        with pytest.raises(DomainError):
            efficiency_curve(0.1, 1.0, 10, "cubic")
        with pytest.raises(DomainError, match="^sigma2_max must be <= 1.7976931348623157e[+]308"):
            efficiency_curve(1, 10**400, 3)


def test_cell_is_plain_record():
    cell = SimulationCell(
        n=2,
        cv=0.5,
        runs=10,
        seed=1,
        mean_khat=0.25,
        sd_khat=0.1,
        pred_mean=0.25,
        pred_sd=0.1,
        se_mean=0.03,
    )
    assert cell.n == 2 and cell.pred_mean == 0.25
