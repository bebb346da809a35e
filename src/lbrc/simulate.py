"""Dataset simulation and empirical convergence-rate experiments.

Sampling follows the stationary length-biased mechanism: the latent lifetime
is drawn from the length-biased distribution, the entry delay is uniform on
(0, lifetime), and an independent exponential clock censors the residual
time.  Everything is driven by a splittable seed scheme, so identical
(model, n, seed) inputs give bit-identical datasets and experiment reports.

A rate experiment simulates a ladder of sample sizes, computes a designated
sup-norm quantity per replication (a representation remainder or an
estimator-versus-truth gap), and fits the log-log slope of the median against
the sample size.  The admissibility diagnostic refuses evaluation windows
whose upper edge reaches into the thin-risk tail.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ComputeError, ConfigError, WindowError
from .estimators import fit
from .influence import (
    assumption3_diagnostic,
    make_oracle_context,
    residual_cdf,
    residual_entry_survival,
    residual_hazard,
)
from .stepfun import EvalGrid, sup_diff_vs_smooth, sup_norm_diff
from .truth import TruthModel

__all__ = [
    "WHICH_CHOICES",
    "TARGET_EXPONENTS",
    "sample_lbrc",
    "RateReport",
    "rate_experiment",
    "consistency_check",
]

# experiment selectors and the exponent each one's medians should decay at:
# three representation remainders, the safeguard gap, and the two
# estimator-consistency gaps
TARGET_EXPONENTS = {
    "Rn1": -0.75,
    "Rn2": -0.75,
    "Rn3": -0.75,
    "Lemma33": -0.5,
    "Lemma35": -1.0,
    "Lemma37": -0.5,
}
WHICH_CHOICES = tuple(TARGET_EXPONENTS)


def normalize_which(token: str) -> str:
    for choice in WHICH_CHOICES:
        if token.strip().lower() == choice.lower():
            return choice
    raise ConfigError(
        f"unknown experiment selector {token!r}; expected one of {', '.join(WHICH_CHOICES)}"
    )


def sample_lbrc(model: TruthModel, n: int, seed) -> Dataset:
    """Draw one LBRC dataset of size n, deterministically from the seed.

    Draw order is fixed: length-biased lifetime quantile levels, entry-delay
    fractions, then (when censoring is on) one exponential clock per subject.
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        lifetime = model.lb_quantile(rng.random(n))
    if not np.all(np.isfinite(lifetime)):
        raise ConfigError(f"{model!r}: lifetime draws overflow a float")
    a = lifetime * rng.random(n)
    residual = lifetime - a
    if model.censor_rate is None:
        return Dataset(a, residual, np.ones(n, dtype=int))
    clock = rng.exponential(1.0 / model.censor_rate, n)
    observed = np.minimum(residual, clock)
    delta = (residual <= clock).astype(int)
    return Dataset(a, observed, delta)


def _child_seed(seed: int, size_index: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(size_index, rep))


@dataclass(frozen=True)
class RateReport:
    """Per-size sup-norm samples and the fitted log-log decay slope."""

    which: str
    sample_sizes: np.ndarray
    sup_residuals: np.ndarray  # shape (len(sizes), reps)
    medians: np.ndarray
    slope: float
    target_exponent: float
    seed: int


def _rep_sup(ctx, which, n, seed_seq):
    model, grid = ctx.model, ctx.grid
    d = sample_lbrc(model, n, seed_seq)
    curves = fit(d)
    if which == "Rn1":
        return residual_hazard(d, ctx, grid, curves).residual_sup
    if which == "Rn2":
        return residual_cdf(d, ctx, grid, curves).residual_sup
    if which == "Rn3":
        return residual_entry_survival(d, ctx, grid, curves).residual_sup
    if which == "Lemma33":
        return sup_diff_vs_smooth(
            curves.entry_cumhaz, model.entry_cumhaz, 0.0, grid.b, grid.points
        )
    if which == "Lemma35":
        return sup_norm_diff(curves.cdf_safeguarded, curves.cdf, grid)
    if which == "Lemma37":
        return sup_diff_vs_smooth(
            curves.combined_cumhaz, model.cumhaz, 0.0, grid.b, grid.points
        )
    raise ConfigError(f"unknown experiment selector {which!r}")


def _run_task(args):
    """Replications ``first, first + stride, ...`` below ``reps`` at every size."""
    ctx, which, seed, sizes, first, stride, reps = args
    reps_here = range(first, reps, stride)
    out = np.empty((len(sizes), len(reps_here)))
    for si, n in enumerate(sizes):
        for j, r in enumerate(reps_here):
            out[si, j] = _rep_sup(ctx, which, n, _child_seed(seed, si, r))
            if not np.isfinite(out[si, j]):
                raise ComputeError(
                    f"non-finite sup residual at n={n}, replication {r} "
                    f"(seed spawn key ({si}, {r}))"
                )
    return out


def rate_experiment(
    model: TruthModel,
    sizes,
    reps: int,
    which: str,
    grid: EvalGrid,
    seed: int,
    threads: int = 1,
) -> RateReport:
    """Measure the empirical decay rate of one sup-norm quantity.

    Refuses to run when the window's upper edge b sits at or beyond the 95th
    percentile of the observed-time distribution, that is when the exit-time
    CDF ``model.exit_cdf(b)`` is not below 0.95 (a NaN CDF, as at b = inf
    without censoring, is refused too), or when the admissibility integral
    exceeds ``DIVERGENCE_CAP``.  ``threads`` worker processes share the
    replications; it must be at least 1, it is capped at ``os.cpu_count()``,
    and it does not change the report.
    """
    which = normalize_which(which)
    sizes = [int(s) for s in np.atleast_1d(np.asarray(sizes)).tolist()]
    if len(sizes) < 2:
        raise ConfigError("need >= 2 sizes for a rate fit")
    if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise ConfigError("sizes must be strictly increasing")
    if reps < 50:
        raise ConfigError(f"need >= 50 replications for stable medians, got {reps}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    threads = min(threads, os.cpu_count() or 1)

    ctx = make_oracle_context(model, grid)
    cdf_b = model.exit_cdf(grid.b)
    if not cdf_b < 0.95:
        raise WindowError(
            f"window upper edge {grid.b:.6g} reaches the 95th percentile of the "
            f"observed-time distribution: the exit CDF there is {cdf_b:.6g}"
        )
    assumption3_diagnostic(ctx, grid.b)
    if which in ("Rn1", "Rn2", "Rn3"):
        # built here once: every task ships the context with its tables
        try:
            ctx.tables
        except ComputeError as exc:
            raise ConfigError(
                f"{model!r}: oracle tables on the window overflow ({exc})"
            ) from None

    # each task pickles the context once, so there are few of them: task k
    # runs the replications r = k (mod stride) at every size
    sup = np.empty((len(sizes), reps))
    stride = min(reps, max(1, 2 * threads))
    tasks = [(ctx, which, seed, sizes, k, stride, reps) for k in range(stride)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = map(_run_task, tasks)
    for k, vals in enumerate(results):
        sup[:, k::stride] = vals

    medians = np.median(sup, axis=1)
    if np.any(medians <= 0):
        raise ComputeError("zero median sup residual; rate fit undefined")
    log_n = np.log(np.asarray(sizes, dtype=float))
    slope = float(np.polyfit(log_n, np.log(medians), 1)[0])
    return RateReport(
        which, np.asarray(sizes), sup, medians, slope, TARGET_EXPONENTS[which], seed
    )


def consistency_check(
    model: TruthModel, n: int, reps: int, grid: EvalGrid, seed: int
) -> dict:
    """Median sup-norm errors of the fitted CDF and cumulative hazard."""
    if reps < 1:
        raise ConfigError(f"need >= 1 replication, got {reps}")
    sup_cdf = np.empty(reps)
    sup_haz = np.empty(reps)
    for r in range(reps):
        d = sample_lbrc(model, n, _child_seed(seed, 0, r))
        curves = fit(d)
        sup_cdf[r] = sup_diff_vs_smooth(
            curves.cdf, model.cdf, grid.lower, grid.b, grid.points
        )
        sup_haz[r] = sup_diff_vs_smooth(
            curves.combined_cumhaz, model.cumhaz, grid.lower, grid.b, grid.points
        )
    return {
        "median_sup_cdf": float(np.median(sup_cdf)),
        "median_sup_cumhaz": float(np.median(sup_haz)),
        "sup_cdf": sup_cdf,
        "sup_cumhaz": sup_haz,
    }
