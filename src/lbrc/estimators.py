"""Product-limit and cumulative-hazard estimators for LBRC samples.

The pooled-risk (Huang-Qin) estimator family replaces the classic at-risk
proportion by ``#{y >= t}/n - entry_survival(t)``, where the entry-delay
survival curve is itself a Kaplan-Meier fit on the pooled 2n-point sample of
entry delays and residual times.  Both at-risk values are closed (">= t")
and are read from counts at the event or exit times where they are needed,
so they are plain functions of t, not step curves.  The classic truncation
product-limit (TJW) estimator and its hazard are kept as baselines; they
reduce to Kaplan-Meier when there is no truncation and to Lynden-Bell when
there is no censoring.

Conventions baked in throughout (and mirrored by the brute-force test
oracles): 0/0 factors are skipped, the pooled-risk denominator inside the
hazard is floored at 1/n, and product factors are clamped into [0, 1] so
survival outputs stay monotone distribution functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .data import Dataset
from .empirical import (
    EmpiricalProcesses,
    build_empirical,
    classic_at_risk,
    count_at_least,
    count_at_most,
)
from .stepfun import StepFunction

Risk = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "FittedCurves",
    "fit",
    "estimate_entry_survival",
    "estimate_combined_risk",
    "hazard_steps",
    "exit_order",
    "classic_cumulative_hazard",
    "combined_cumulative_hazard",
    "pooled_entry_cumhaz",
    "tjw_product_limit",
    "huang_qin_cdf",
    "safeguarded_cdf",
]


def _grouped_last(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last of the per-subject values at each distinct time of sorted ``times``."""
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    return times[starts], values[np.append(starts[1:], times.size) - 1]


def _drop_flat(times: np.ndarray, values: np.ndarray, initial: float) -> tuple[np.ndarray, np.ndarray]:
    """Remove zero-size jumps so jump_times enumerate actual jumps."""
    prev = np.concatenate(([initial], values[:-1]))
    keep = values != prev
    return times[keep], values[keep]


def _pooled_ratio(emp: EmpiricalProcesses) -> np.ndarray:
    """Pooled jump count over pooled at-risk count at each pooled mass point.

    Both counts are at least 1 at a mass point, so no factor is 0/0.
    """
    return emp.pooled_jumps / emp.pooled_at_risk_counts


def estimate_entry_survival(emp: EmpiricalProcesses) -> StepFunction:
    """Kaplan-Meier survival of the entry delay, fitted on the pooled sample.

    At each pooled mass point the running product picks up the factor
    ``1 - (pooled jump count) / (pooled at-risk count)``; a zero at-risk
    count contributes no factor (0/0 is skipped).
    """
    survival = np.cumprod(1.0 - _pooled_ratio(emp))
    times, vals = _drop_flat(emp.pooled_times, survival, 1.0)
    return StepFunction(times, vals, 1.0)


def estimate_combined_risk(d: Dataset, entry_survival: StepFunction) -> Risk:
    """Pooled risk as a function of t: ``#{y >= t}/n - entry_survival(t)``.

    Not guaranteed nonnegative in finite samples; consumers floor it.
    The exit count is closed, so the value at an event time still includes
    the exiting subject.
    """
    y_sorted = np.sort(d.y)

    def risk(t):
        return count_at_least(y_sorted, t) / d.n - entry_survival.at(t)

    return risk


Steps = tuple[np.ndarray, np.ndarray]


def hazard_steps(emp: EmpiricalProcesses, risk: Risk) -> Steps:
    """Hazard increments at the distinct event times, and their denominators.

    The denominator is ``risk`` floored at 1/n; the increment is the event
    fraction over it.
    """
    denom = np.maximum(risk(emp.event_times), 1.0 / emp.n)
    return (emp.event_counts / emp.n) / denom, denom


def _hazard_from_events(emp: EmpiricalProcesses, steps: Steps) -> StepFunction:
    if emp.event_times.size == 0:
        return StepFunction.constant(0.0)
    return StepFunction(emp.event_times, np.cumsum(steps[0]), 0.0)


def combined_cumulative_hazard(emp: EmpiricalProcesses, steps: Steps) -> StepFunction:
    """Cumulative hazard with the pooled-risk denominator, floored at 1/n,
    from its ``hazard_steps``."""
    return _hazard_from_events(emp, steps)


def classic_cumulative_hazard(emp: EmpiricalProcesses) -> StepFunction:
    """Cumulative hazard with the classic at-risk denominator.

    Equals Nelson-Aalen when every entry delay is zero.
    """
    return _hazard_from_events(emp, hazard_steps(emp, classic_at_risk(emp.dataset)))


def pooled_entry_cumhaz(emp: EmpiricalProcesses) -> StepFunction:
    """Cumulative hazard of the entry delay from the pooled sample."""
    if emp.pooled_times.size == 0:
        return StepFunction.constant(0.0)
    return StepFunction(emp.pooled_times, np.cumsum(_pooled_ratio(emp)), 0.0)


def _product_limit(times: np.ndarray, factors: np.ndarray) -> StepFunction:
    """CDF from one factor per entry of the ascending ``times``, ties in stable
    order; the running product after the last factor at a time is its value."""
    survival = np.cumprod(factors)
    times, vals = _grouped_last(times, survival)
    times, vals = _drop_flat(times, 1.0 - vals, 0.0)
    return StepFunction(times, vals, 0.0)


def exit_order(d: Dataset) -> np.ndarray:
    """The subjects in ascending order of exit time, ties in data order.

    This is ``np.argsort(d.y, kind="stable")``, found with the faster
    unstable sort: only the order inside a run of tied exit times can differ,
    and one integer sort of (tie run, subject) keys puts each run in data
    order.
    """
    order = np.argsort(d.y)
    y = d.y[order]
    tied = y[1:] == y[:-1]
    if not tied.any():
        return order
    run = np.concatenate(([0], np.cumsum(~tied, dtype=np.int64))) * d.n
    return np.sort(run + order) - run


def tjw_product_limit(d: Dataset, order: np.ndarray) -> StepFunction:
    """Classic truncation product-limit estimate of the event-time CDF.

    One factor ``1 - 1/(at-risk count at y_i)`` per uncensored subject, taken
    in the ``exit_order`` of the sample.  At-risk counts are exact integers,
    ``#{a <= y_i} + #{y >= y_i} - n``.
    """
    y = d.y[order]
    at_risk = count_at_most(np.sort(d.a), y) + count_at_least(y, y) - d.n
    factors = np.where(d.delta[order] == 1, 1.0 - 1.0 / at_risk, 1.0)
    return _product_limit(y, factors)


def safeguarded_cdf(d: Dataset, risk: Risk, order: np.ndarray) -> StepFunction:
    """Pooled-risk product-limit with the +1 safeguard in each denominator.

    Factors are ``1 - 1/(n * risk(y_i) + 1)`` for uncensored subjects, taken
    in the ``exit_order`` of the sample and clamped into [0, 1] to guard
    against a negative finite-sample risk value.
    """
    y = d.y[order]
    raw = np.where(d.delta[order] == 1, 1.0 - 1.0 / (d.n * risk(y) + 1.0), 1.0)
    return _product_limit(y, np.clip(raw, 0.0, 1.0))


def huang_qin_cdf(emp: EmpiricalProcesses, steps: Steps) -> StepFunction:
    """Pooled-risk product-limit CDF from the ``hazard_steps`` of the pooled
    risk: product of one-minus-hazard-increments.

    Each factor ``1 - (hazard increment)`` is clamped into [0, 1].  The
    factors are built from the increments themselves, not from differences
    of the running sum ``combined_cumulative_hazard``, so the product-limit
    map of that sum gives the same curve only up to rounding.
    """
    if emp.event_times.size == 0:
        return StepFunction.constant(0.0)
    factors = np.clip(1.0 - steps[0], 0.0, 1.0)
    return _product_limit(emp.event_times, factors)


@dataclass(frozen=True)
class FittedCurves:
    """Every fitted curve for one dataset.

    Each curve is built from `empirical` the first time it is read and kept
    from then on, so a caller pays only for the curves it reads.  The pooled
    risk ``combined_risk`` is a function of t, not a step curve.  Two
    intermediates are kept the same way, each computed once for the curves
    that share it: the pooled-risk ``hazard_steps`` (``combined_cumhaz``,
    ``cdf`` and the plugin context) and the ``exit_order`` (``tjw_cdf`` and
    ``cdf_safeguarded``).
    """

    empirical: EmpiricalProcesses

    @cached_property
    def entry_survival(self) -> StepFunction:
        return estimate_entry_survival(self.empirical)

    @cached_property
    def combined_risk(self) -> Risk:
        return estimate_combined_risk(self.empirical.dataset, self.entry_survival)

    @cached_property
    def hazard_steps(self) -> Steps:
        return hazard_steps(self.empirical, self.combined_risk)

    @cached_property
    def exit_order(self) -> np.ndarray:
        return exit_order(self.empirical.dataset)

    @cached_property
    def classic_cumhaz(self) -> StepFunction:
        return classic_cumulative_hazard(self.empirical)

    @cached_property
    def combined_cumhaz(self) -> StepFunction:
        return combined_cumulative_hazard(self.empirical, self.hazard_steps)

    @cached_property
    def tjw_cdf(self) -> StepFunction:
        return tjw_product_limit(self.empirical.dataset, self.exit_order)

    @cached_property
    def cdf(self) -> StepFunction:
        return huang_qin_cdf(self.empirical, self.hazard_steps)

    @cached_property
    def cdf_safeguarded(self) -> StepFunction:
        return safeguarded_cdf(self.empirical.dataset, self.combined_risk, self.exit_order)

    @cached_property
    def entry_cumhaz(self) -> StepFunction:
        return pooled_entry_cumhaz(self.empirical)


def fit(d: Dataset) -> FittedCurves:
    """Fit the full estimator family on one dataset.

    Only the pooled and event count tables are computed here; each curve is
    built when first read.
    """
    return FittedCurves(build_empirical(d))
