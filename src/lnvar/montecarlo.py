"""Seeded simulation grid for the mean-ratio variability estimator.

A cell is one (n, cv, runs, seed) experiment: each run draws n lognormal
variates with geometric mean exp(mu_y) and squared coefficient of variation
cv^2, reads off the bias-corrected relative ratio, and the cell reports the
empirical mean and sd of that estimate over all runs next to the analytic
predictions.

Reproducibility contract: per-cell seeds derive from (master_seed, row-major
cell index) through numpy's SeedSequence mixing, so any cell can be re-run in
isolation; draws come from an independent PCG64 stream per cell; per-run
estimates fold block by block, in one pass, into two exact sums (ExactSum):
of k_hat, and of its squares about a centre near the mean, and the variance
is one exact rational of their exact() readings, rounded once.  Cells run
concurrently, one thread per CPU (numpy releases the GIL while sampling), on
independent streams, so the results do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (
    BUDGET_ENV_VAR,
    DEFAULT_MAX_DRAWS,
    MAX_FLOAT_ARRAY_LEN,
    DomainError,
    check_at_least,
    check_draw_budget,
    check_int,
    check_positive,
)
from .estimator import ExactSum, kn_from_sums, large_sample_efficiency, sd_k_hat

__all__ = [
    "SimulationCell",
    "GridConfig",
    "resolve_runs",
    "derive_cell_seed",
    "run_cell",
    "run_grid",
    "efficiency_curve",
    "BUDGET_ENV_VAR",
    "DEFAULT_MAX_DRAWS",
    "DEFAULT_MASTER_SEED",
]

# total runs budget follows the source protocol: 1e7 estimator draws split
# across the runs of each sample size
RUNS_NUMERATOR = 10**7
DEFAULT_MASTER_SEED = 1729
# draws per sampling step (_CHUNK_ELEMS // n runs of n draws) and runs per reduction
# block, at least the 1024 runs that set the centre; streams and exact sums split
# freely, so neither changes the bytes.  Peak RSS of default `lnvar simulate` on two
# threads (x86-64, Python 3.11, numpy 2.4) at chunk/block 1 << 15/17: 40.5 MB; 12/17:
# 39.9 MB, +23% wall; 16/17: 43.3 MB; 15/15: 39.0 MB, +9% wall; 15/20: 53.2 MB.
_CHUNK_ELEMS = 1 << 15
_BLOCK_RUNS = 1 << 17

DEFAULT_N_VALUES = (2, 10, 100)
DEFAULT_CV_VALUES = (0.1, 0.5, 1.0)
DEFAULT_RUNS_CAP = 10**6

# the largest cv whose square, the population's k, is a float
_CV_MAX = math.sqrt(sys.float_info.max)
# the log-space means whose geometric mean exp(mu_y) is a positive float
_MU_Y_MIN = math.log(math.ulp(0.0))
_MU_Y_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SimulationCell:
    """Summary of one Monte Carlo cell."""

    n: int
    cv: float
    runs: int
    seed: int
    mean_khat: float
    sd_khat: float
    pred_mean: float
    pred_sd: float
    se_mean: float


@dataclass
class GridConfig:
    """A batch of cells: the cross product of n_values and cv_values.

    runs per cell defaults to floor(RUNS_NUMERATOR / (n - 1)), clipped to
    runs_cap when one is set; runs_override replaces the rule entirely.
    """

    n_values: Sequence[int]
    cv_values: Sequence[float]
    master_seed: int = DEFAULT_MASTER_SEED
    runs_override: Optional[int] = None
    runs_cap: Optional[int] = None
    mu_y: float = 0.0

    def __post_init__(self) -> None:
        self.n_values = tuple(check_int(n, "n", 2) for n in self.n_values)
        self.cv_values = tuple(_check_population(cv, self.mu_y) for cv in self.cv_values)
        if not self.n_values or not self.cv_values:
            raise DomainError("n_values and cv_values must be nonempty")
        self.master_seed = check_int(self.master_seed, "master_seed", 0)
        if self.runs_override is not None:
            self.runs_override = check_int(self.runs_override, "runs_override", 2)
        if self.runs_cap is not None:
            self.runs_cap = check_int(self.runs_cap, "runs_cap", 2)

    @classmethod
    def default(cls, master_seed: int = DEFAULT_MASTER_SEED) -> "GridConfig":
        """The stock desk-scale grid: n in {2, 10, 100}, cv in {0.1, 0.5, 1.0},
        runs = min(1e6, floor(1e7 / (n - 1)))."""
        return cls(
            n_values=DEFAULT_N_VALUES,
            cv_values=DEFAULT_CV_VALUES,
            master_seed=master_seed,
            runs_cap=DEFAULT_RUNS_CAP,
        )


def resolve_runs(
    n: int, runs_override: Optional[int] = None, runs_cap: Optional[int] = None
) -> int:
    """Runs for a sample size n under the default rule, a cap, or an override."""
    n = check_int(n, "n", 2)
    if runs_cap is not None:
        runs_cap = check_int(runs_cap, "runs_cap", 2)
    if runs_override is not None:
        return check_int(runs_override, "runs_override", 2)
    runs = RUNS_NUMERATOR // (n - 1)
    return runs if runs_cap is None else min(runs, runs_cap)


def derive_cell_seed(master_seed: int, cell_index: int) -> int:
    """Mix (master_seed, cell_index) into an independent 64-bit cell seed.

    Uses numpy's SeedSequence with the cell index as spawn key, the same
    mixing that backs SeedSequence.spawn, so cell streams never overlap
    and a cell is reproducible from the CSV row alone.
    """
    master_seed = check_int(master_seed, "master_seed", 0)
    cell_index = check_int(cell_index, "cell_index", 0)
    ss = np.random.SeedSequence(master_seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_population(cv: float, mu_y: float) -> float:
    """cv as a float; DomainError unless cv^2 and exp(mu_y) are positive floats."""
    check_positive(cv, "cv", _CV_MAX)  # before float(cv), which overflows on 10**400
    check_at_least(mu_y, "mu_y", _MU_Y_MIN, _MU_Y_MAX)
    return float(cv)


def run_cell(n: int, cv: float, runs: int, seed: int, mu_y: float = 0.0) -> SimulationCell:
    """Run one simulation cell and summarize it.

    Each run's estimate is the bias-corrected ratio k_hat; the cell reports
    its mean and sd over runs (unbiased (runs - 1) divisor) next to the
    analytic predictions cv^2 and sd_k_hat(n, cv^2).  A cell of more draws
    than LNVAR_MAX_DRAWS (DEFAULT_MAX_DRAWS when unset) raises
    BudgetExceededError.  A run whose draws or estimate leave the float range
    (say mu_y = 705 with cv = 3) raises DomainError, without a numpy warning.
    """
    n = check_int(n, "n", 2)
    cv = _check_population(cv, mu_y)
    runs = check_int(runs, "runs", 2)
    seed = check_int(seed, "seed", 0)

    check_draw_budget(runs * n, f"cell (n={n}, runs={runs})")
    if cv > 2.0:
        warnings.warn(
            f"cv={cv:g} > 2: the estimator's variance grows like cv^8/n, so the "
            "empirical sd converges slowly at this setting",
            RuntimeWarning,
            stacklevel=2,
        )

    sigma = math.sqrt(math.log1p(cv * cv))
    rng = np.random.default_rng(seed)

    block = np.empty(min(runs, _BLOCK_RUNS), dtype=np.float64)
    rows_per_draw = max(1, _CHUNK_ELEMS // n)
    sum_k = sum_sq = ExactSum()

    # a draw or a sum beyond the float range ends as an inf or a nan estimate,
    # which ExactSum refuses; numpy is not to warn on the way
    with np.errstate(all="ignore"):
        for start in range(0, runs, _BLOCK_RUNS):
            k_hat = block[: min(_BLOCK_RUNS, runs - start)]
            for row in range(0, k_hat.size, rows_per_draw):
                x = np.exp(rng.normal(mu_y, sigma, size=(min(rows_per_draw, k_hat.size - row), n)))
                if n == 2:  # one add per row, much faster than a reduction along rows
                    kn = kn_from_sums(np.add(*x.T), np.add(*(1.0 / x).T), n)
                else:
                    kn = kn_from_sums(x.sum(axis=1), (1.0 / x).sum(axis=1), n)
                np.multiply(kn, n / (n - 1.0), out=k_hat[row : row + kn.size])
            try:
                sum_k += ExactSum.of(k_hat)
                if start == 0:
                    # squares about the first 1024 runs' mean cut to 27 bits, so that
                    # k_hat - centre is exact near it: only the squares round
                    head = k_hat[:1024]
                    m, e = math.frexp(ExactSum.of(head).value("mean_khat") / head.size)
                    centre = math.ldexp(round(m * 2**27), e - 27)
                k_hat -= centre
                sum_sq += ExactSum.of(np.square(k_hat, out=k_hat))
            except DomainError:
                raise DomainError(
                    f"mu_y={mu_y:g}, cv={cv:g}: the draws or the per-run estimates "
                    "leave the float range"
                ) from None
    d = sum_k.exact() - runs * Fraction(centre)
    try:
        var = float((runs * sum_sq.exact() - d * d) / (runs * (runs - 1)))
    except OverflowError:
        raise OverflowError("sd_khat overflows a float") from None
    sd = math.sqrt(var)

    return SimulationCell(
        n=n,
        cv=cv,
        runs=runs,
        seed=seed,
        mean_khat=sum_k.value("mean_khat") / runs,
        sd_khat=sd,
        pred_mean=cv * cv,
        pred_sd=sd_k_hat(n, cv * cv),
        se_mean=sd / math.sqrt(runs),
    )


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_grid(cfg: GridConfig) -> list[SimulationCell]:
    """Run every (n, cv) cell of the grid, row-major over n then cv.

    Cells run concurrently on up to one thread per available CPU; each has
    its own stream, so the results are the same for any thread count.  Each
    cell is held to the LNVAR_MAX_DRAWS budget, as in run_cell.  A failure
    raises the error of the lowest-index failing cell, cancels the cells not
    yet started, and returns no partial results.
    """
    # imported here, not at the top, so that `import lnvar` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    specs = [
        (
            n,
            cv,
            resolve_runs(n, cfg.runs_override, cfg.runs_cap),
            derive_cell_seed(cfg.master_seed, index),
        )
        for index, (n, cv) in enumerate(product(cfg.n_values, cfg.cv_values))
    ]

    def cell(spec: tuple[int, float, int, int]) -> SimulationCell:
        # looked up at call time, so a patched montecarlo.run_cell is the one run
        return run_cell(*spec, cfg.mu_y)

    pool = ThreadPoolExecutor(max_workers=min(len(specs), _available_cpus()))
    try:
        return list(pool.map(cell, specs))
    finally:
        pool.shutdown(cancel_futures=True)


def efficiency_curve(
    sigma2_min: float,
    sigma2_max: float,
    points: int,
    spacing: Literal["log", "linear"] = "log",
) -> list[tuple[float, float]]:
    """Large-sample efficiency sampled on a grid of log-space variances."""
    check_positive(sigma2_min, "sigma2_min")
    check_positive(sigma2_max, "sigma2_max")
    if not sigma2_min < sigma2_max:
        raise DomainError(f"need sigma2_min < sigma2_max, got [{sigma2_min}, {sigma2_max}]")
    points = check_int(points, "points", 2, MAX_FLOAT_ARRAY_LEN)
    if spacing == "log":
        grid = np.geomspace(sigma2_min, sigma2_max, points)
    elif spacing == "linear":
        grid = np.linspace(sigma2_min, sigma2_max, points)
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    return [(float(s2), large_sample_efficiency(float(s2))) for s2 in grid]
