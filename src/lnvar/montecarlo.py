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
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (
    MAX_FLOAT_ARRAY_LEN,
    DomainError,
    check_draw_budget,
    check_int,
    check_real,
)
from .estimator import ExactSum, kn_from_sums, large_sample_efficiency, sd_k_hat

__all__ = [
    "SimulationCell",
    "resolve_runs",
    "derive_cell_seed",
    "run_cell",
    "run_grid",
    "efficiency_curve",
    "DEFAULT_MASTER_SEED",
]

# total runs budget follows the source protocol: 1e7 estimator draws split
# across the runs of each sample size
RUNS_NUMERATOR = 10**7
DEFAULT_MASTER_SEED = 1729
# draws per sampling step (_CHUNK_ELEMS // n runs of n draws) and runs per reduction
# block, at least the 1024 runs that set the centre; streams and exact sums split
# freely, so neither changes the bytes.  3 << 14 gives each cv of a three-cv grid one
# ExactSum chunk per block.  Peak RSS of default `lnvar simulate`, 2 threads (x86-64,
# Python 3.11, numpy 2.4, medians of 6 `bench/run.py --workload grid` runs), at chunk/block
# 1 << 15 / 3 << 14: 38.9 MB; 15/16: 39.1 MB; 15/17: 40.1 MB; 16 / 3 << 14: 40.1 MB;
# 14 / 3 << 14: 38.3 MB, +12% cpu_s and wall_s; the other times moved within their spread.
_CHUNK_ELEMS = 1 << 15
_BLOCK_RUNS = 3 << 14

# the default grid, `lnvar simulate` without options: runs = min(1e6, floor(1e7 / (n - 1)))
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


def resolve_runs(
    n: int, runs_override: Optional[int] = None, runs_cap: Optional[int] = None
) -> int:
    """Runs for a sample size n under the default rule, a cap, or an override."""
    n = check_int(n, "n", 2)
    if runs_override is not None:
        runs_override = check_int(runs_override, "runs_override", 2)
    if runs_cap is not None:
        runs_cap = check_int(runs_cap, "runs_cap", 2)
    if runs_override is not None:
        return runs_override
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


def _check_population(cvs: Iterable[float], mu_y: float) -> tuple[tuple[float, ...], float]:
    """cvs and mu_y as floats; DomainError unless each cv^2 and exp(mu_y) are positive floats."""
    cvs = tuple(check_real(cv, "cv", maximum=_CV_MAX, positive=True) for cv in cvs)
    return cvs, check_real(mu_y, "mu_y", _MU_Y_MIN, _MU_Y_MAX)


def _row_sums(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of x's rows into out, bit for bit np.sum(x, axis=-1, out=out): below 16
    columns numpy adds a row in order, or from 8 as ((x0 + x1) + (x2 + x3)) + ((x4 + x5) +
    (x6 + x7)) and then the rest in order, and column adds in that order ran 2-24x faster
    than its reduction along a step's rows (numpy 2.4, x86-64); from 16, no faster."""
    cols = x.T
    if len(cols) >= 16:
        return np.sum(x, axis=-1, out=out)
    np.add(cols[0], cols[1], out=out)
    if len(cols) >= 8:
        out += cols[2] + cols[3]
        out += (cols[4] + cols[5]) + (cols[6] + cols[7])
    for col in cols[8 if len(cols) >= 8 else 2 :]:
        out += col
    return out


def run_cell(
    n: int, cv: float | Iterable[float], runs: int, seed: int, mu_y: float = 0.0
) -> SimulationCell | list[SimulationCell]:
    """Run one simulation cell and summarize it; for an iterable of cvs, a list of cells.

    A str, bytes, bytearray, 0-d array or non-iterable is one cv; any other iterable is read once.
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
    one_cv = not isinstance(cv, Iterable) or isinstance(cv, (str, bytes, bytearray)) or (
        isinstance(cv, np.ndarray) and cv.ndim == 0)
    cvs, mu_y = _check_population([cv] if one_cv else cv, mu_y)
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
    xs, sums = np.empty(z.shape), np.empty(z.shape[0])  # a step's x, then 1/x; sums of 1/x
    sum_k, sum_sq, centres = [ExactSum()] * len(cvs), [ExactSum()] * len(cvs), [0.0] * len(cvs)

    with np.errstate(all="ignore"):  # numpy does not warn of an inf or nan refused below
        for start in range(0, runs, blocks.shape[1]):
            size = min(blocks.shape[1], runs - start)
            for row in range(0, size, rows_per_draw):
                rows = min(rows_per_draw, size - row)
                z_step, x, s = rng.standard_normal(out=z[:rows]), xs[:rows], sums[:rows]
                step = blocks[:, row : row + rows]
                for k_hat, sigma in zip(step, sigmas):
                    # z * sigma + mu_y is rng.normal(mu_y, sigma) bit for bit; k_hat holds
                    # the sums of x until it holds the estimates
                    np.exp(np.add(np.multiply(z_step, sigma, out=x), mu_y, out=x), out=x)
                    _row_sums(x, k_hat)
                    _row_sums(np.divide(1.0, x, out=x), s)
                    np.multiply(kn_from_sums(k_hat, s, n, out=k_hat), n / (n - 1.0), out=k_hat)
                # one test per step for all cvs: a test per cv cost 8% more grid CPU
                finite = np.isfinite(step)
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
    return cells[0] if one_cv else cells


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_grid(
    n_values: Sequence[int],
    cv_values: Sequence[float],
    master_seed: int = DEFAULT_MASTER_SEED,
    runs_override: Optional[int] = None,
    runs_cap: Optional[int] = None,
    mu_y: float = 0.0,
) -> list[SimulationCell]:
    """Run every (n, cv) cell of the grid, row-major over n then cv.

    runs per cell defaults to floor(RUNS_NUMERATOR / (n - 1)), clipped to runs_cap when
    one is set; runs_override replaces the rule entirely.  Every argument is checked before
    any cell runs.  The parameters are named as a simulate manifest m's config keys, so
    run_grid(master_seed=m["master_seed"], **m["config"]) rebuilds its grid.  Each n is one
    run_cell call with the grid's cvs, on the seed derive_cell_seed(master_seed, index of n),
    so its cv cells share their draws.  The calls are mapped onto up to one thread per
    available CPU; run_cell is looked up when run_grid runs, so a patched montecarlo.run_cell
    is the one mapped.  Each n has its own stream, so the results are the same for any
    thread count, and its own LNVAR_MAX_DRAWS budget.  A failure raises the error of the
    lowest-index failing n, cancels the sample sizes not yet started, and returns no
    partial results.
    """
    # imported here, not at the top, so that `import lnvar` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    ns = [check_int(n, "n", 2) for n in n_values]
    cvs, mu_y = _check_population(cv_values, mu_y)
    if not ns or not cvs:
        raise DomainError("n_values and cv_values must be nonempty")
    seeds = [derive_cell_seed(master_seed, i) for i in range(len(ns))]
    runs = [resolve_runs(n, runs_override, runs_cap) for n in ns]
    pool = ThreadPoolExecutor(max_workers=min(len(ns), _available_cpus()))
    try:
        rows = pool.map(run_cell, ns, [cvs] * len(ns), runs, seeds, [mu_y] * len(ns))
        return [cell for row in rows for cell in row]
    finally:
        pool.shutdown(cancel_futures=True)


def efficiency_curve(
    sigma2_min: float,
    sigma2_max: float,
    points: int,
    spacing: Literal["log", "linear"] = "log",
) -> list[tuple[float, float]]:
    """Large-sample efficiency sampled on a grid of log-space variances."""
    low = check_real(sigma2_min, "sigma2_min", positive=True)
    high = check_real(sigma2_max, "sigma2_max", positive=True)
    if not low < high:
        raise DomainError(f"need sigma2_min < sigma2_max, got [{sigma2_min}, {sigma2_max}]")
    points = check_int(points, "points", 2, MAX_FLOAT_ARRAY_LEN)
    if spacing == "log":
        grid = np.geomspace(low, high, points)
    elif spacing == "linear":
        grid = np.linspace(low, high, points)
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    return [(s2, large_sample_efficiency(s2)) for s2 in grid.tolist()]
