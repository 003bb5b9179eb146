"""Seeded simulation grid for the mean-ratio variability estimator.

A cell is one (n, cv, runs, seed) experiment: each run draws n lognormal
variates with geometric mean exp(mu_y) and squared coefficient of variation
cv^2, reads off the bias-corrected relative ratio, and the cell reports the
empirical mean and sd of that estimate over all runs next to the analytic
predictions.

Reproducibility contract: the seed of the i-th n derives from (master_seed,
i) through numpy's SeedSequence mixing, and all cv cells of that n read its
PCG64 stream (common random numbers: the cells are correlated, each equal to
its cv run alone), so any cell can be re-run in isolation; per-run estimates
fold block by block, in one pass, into two exact sums (ExactSum): of k_hat,
and of its squares about a centre near the mean, and the variance is one
exact rational of their exact() readings, rounded once.  Sample sizes run
concurrently, one thread each up to the CPU count (numpy releases the GIL
while sampling), so the results do not depend on the thread count.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
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
    mixing that backs SeedSequence.spawn, so streams never overlap.  run_grid
    passes the index of the sample size, so the cv cells of one n share a
    seed, and a cell is reproducible from its CSV row alone.
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


def run_cell(
    n: int, cv: float | Sequence[float], runs: int, seed: int, mu_y: float = 0.0
) -> SimulationCell | list[SimulationCell]:
    """Run one simulation cell and summarize it; for a sequence of cvs, a list of cells.

    Each run's estimate is the bias-corrected ratio k_hat; a cell reports
    its mean and sd over runs (unbiased (runs - 1) divisor) next to the
    analytic predictions cv^2 and sd_k_hat(n, cv^2).  Every cv reads the same
    runs * n standard normals z as exp(z * sigma + mu_y) (common random
    numbers), so each cell of a list equals that cv's cell run alone.  More
    draws than LNVAR_MAX_DRAWS (DEFAULT_MAX_DRAWS when unset) raise
    BudgetExceededError.  Each sampling step checks its estimates: a run whose draws
    or estimate leave the float range (say mu_y = 705 with cv = 3) raises DomainError,
    without a numpy warning, naming the first cv, in order, to fail at the first such
    step; ExactSum's own, naming no cv, if only a square about the centre overflows.
    """
    n = check_int(n, "n", 2)
    cvs = [_check_population(c, mu_y) for c in ([cv] if isinstance(cv, numbers.Number) else cv)]
    if not cvs:
        raise DomainError("cv must be a number or a nonempty sequence of numbers")
    runs = check_int(runs, "runs", 2)
    seed = check_int(seed, "seed", 0)

    check_draw_budget(runs * n, f"cell (n={n}, runs={runs})")
    for c in cvs:
        if c > 2.0:
            warnings.warn(
                f"cv={c:g} > 2: the estimator's variance grows like cv^8/n, so the "
                "empirical sd converges slowly at this setting",
                RuntimeWarning,
                stacklevel=2,
            )

    sigmas = [math.sqrt(math.log1p(c * c)) for c in cvs]
    rng = np.random.default_rng(seed)

    # every buffer is allocated here, once: all cvs' blocks together hold about
    # _BLOCK_RUNS runs, each at least the 1024 runs that set its centre
    blocks = np.empty((len(cvs), min(runs, max(1024, _BLOCK_RUNS // len(cvs)))))
    rows_per_draw = max(1, _CHUNK_ELEMS // n)
    z = np.empty((min(rows_per_draw, blocks.shape[1]), n))
    xs, sums = np.empty((2, *z.shape)), np.empty((2, z.shape[0]))  # a step's x and 1/x, row sums
    sum_k, sum_sq, centres = [ExactSum()] * len(cvs), [ExactSum()] * len(cvs), [0.0] * len(cvs)

    with np.errstate(all="ignore"):  # numpy does not warn of an inf or nan refused below
        for start in range(0, runs, blocks.shape[1]):
            size = min(blocks.shape[1], runs - start)
            for row in range(0, size, rows_per_draw):
                rows = min(rows_per_draw, size - row)
                z_step, x, s = rng.standard_normal(out=z[:rows]), xs[:, :rows], sums[:, :rows]
                for k_hat, sigma in zip(blocks, sigmas):
                    # z * sigma + mu_y is rng.normal(mu_y, sigma) bit for bit
                    np.add(np.multiply(z_step, sigma, out=x[0]), mu_y, out=x[0])
                    np.divide(1.0, np.exp(x[0], out=x[0]), out=x[1])
                    if n == 2:  # one add per row, much faster than a reduction along rows
                        np.add(x[..., 0], x[..., 1], out=s)
                    else:
                        np.sum(x, axis=2, out=s)
                    np.multiply(kn_from_sums(*s, n), n / (n - 1.0), out=k_hat[row : row + rows])
                # one test per step for all cvs: a test per cv cost 8% more grid CPU
                finite = np.isfinite(blocks[:, row : row + rows])
                if not finite.all():
                    raise DomainError(
                        f"mu_y={mu_y:g}, cv={cvs[finite.all(axis=1).argmin()]:g}: the draws or "
                        "the per-run estimates leave the float range"
                    )
            for i, k_hat in enumerate(blocks[:, :size]):
                sum_k[i] += ExactSum.of(k_hat)
                if start == 0:
                    # squares about the first 1024 runs' mean cut to 27 bits, so that
                    # k_hat - centre is exact near it: only the squares round
                    head = k_hat[:1024]
                    m, e = math.frexp(ExactSum.of(head).value("mean_khat") / head.size)
                    centres[i] = math.ldexp(round(m * 2**27), e - 27)
                k_hat -= centres[i]
                sum_sq[i] += ExactSum.of(np.square(k_hat, out=k_hat))

    cells = []
    for c, s_k, s_sq, centre in zip(cvs, sum_k, sum_sq, centres):
        d = s_k.exact() - runs * Fraction(centre)
        try:
            sd = math.sqrt(float((runs * s_sq.exact() - d * d) / (runs * (runs - 1))))
        except OverflowError:
            raise OverflowError("sd_khat overflows a float") from None
        cells.append(SimulationCell(
            n=n, cv=c, runs=runs, seed=seed, mean_khat=s_k.value("mean_khat") / runs, sd_khat=sd,
            pred_mean=c * c, pred_sd=sd_k_hat(n, c * c), se_mean=sd / math.sqrt(runs),
        ))
    return cells[0] if isinstance(cv, numbers.Number) else cells


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_grid(cfg: GridConfig) -> list[SimulationCell]:
    """Run every (n, cv) cell of the grid, row-major over n then cv.

    The cells of one n are one run_cell call with the grid's cvs, on the
    seed derive_cell_seed(master_seed, index of n), so they share their draws.
    Sample sizes run concurrently on up to one thread per available CPU; each
    has its own stream, so the results are the same for any thread count.
    Each n is held to the LNVAR_MAX_DRAWS budget, as in run_cell.  A failure
    raises the error of the lowest-index failing n, cancels the sample sizes
    not yet started, and returns no partial results.
    """
    # imported here, not at the top, so that `import lnvar` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    specs = [
        (n, resolve_runs(n, cfg.runs_override, cfg.runs_cap), derive_cell_seed(cfg.master_seed, i))
        for i, n in enumerate(cfg.n_values)
    ]

    def cells(spec: tuple[int, int, int]) -> list[SimulationCell]:
        # looked up at call time, so a patched montecarlo.run_cell is the one run
        n, runs, seed = spec
        return run_cell(n, cfg.cv_values, runs, seed, cfg.mu_y)

    pool = ThreadPoolExecutor(max_workers=min(len(specs), _available_cpus()))
    try:
        return [cell for row in pool.map(cells, specs) for cell in row]
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
