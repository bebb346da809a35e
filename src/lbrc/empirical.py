"""Raw empirical processes of an LBRC sample.

Two families of counting processes drive every estimator here:

* classic processes over total observed times: the event-fraction curve
  (fraction of subjects with an observed event by ``t``) and the
  closed-interval at-risk proportion (fraction with entry delay <= t <= exit);
* pooled processes over the *combined* sample of entry delays and residual
  times, which share a marginal distribution under stationary length-biased
  sampling and can therefore be stacked into one 2n-point sample.

"At risk" curves use ">= t" (closed) semantics: the subject leaving at ``t``
still counts at ``t``.  They are stored as step functions whose at-jump value
is the left limit of the strictly-greater count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .stepfun import StepFunction

__all__ = [
    "EmpiricalProcesses",
    "build_empirical",
    "event_cdf",
    "classic_at_risk",
    "exit_survival",
]


def _cdf_step(points: np.ndarray, n: int) -> StepFunction:
    """Cadlag empirical CDF: fraction of ``points`` <= t, out of ``n``."""
    if points.size == 0:
        return StepFunction.constant(0.0)
    uniq, counts = np.unique(points, return_counts=True)
    return StepFunction(uniq, np.cumsum(counts) / n, 0.0)


def _geq_count_step(points: np.ndarray, n: int) -> StepFunction:
    """Fraction of ``points`` >= t, with the closed value kept at each jump."""
    if points.size == 0:
        return StepFunction.constant(0.0)
    uniq, counts = np.unique(points, return_counts=True)
    cum = np.cumsum(counts)
    below = np.concatenate(([0], cum[:-1]))
    right = (points.size - cum) / n
    ats = (points.size - below) / n
    return StepFunction(uniq, right, points.size / n, ats)


@dataclass(frozen=True)
class EmpiricalProcesses:
    """All raw counting processes of one dataset, plus integer count tables.

    The integer arrays (`pooled_times`, `pooled_jumps`,
    `pooled_at_risk_counts`, `event_times`, `event_counts`) carry exact counts
    for product-limit factors and are built with the object.  The step-function
    fields are the user-facing curves; each is built from `dataset` the first
    time it is read and kept from then on.
    """

    dataset: Dataset
    pooled_times: np.ndarray
    pooled_jumps: np.ndarray
    pooled_at_risk_counts: np.ndarray
    event_times: np.ndarray
    event_counts: np.ndarray

    @property
    def n(self) -> int:
        return self.dataset.n

    @cached_property
    def event_cdf(self) -> StepFunction:
        return event_cdf(self.dataset)

    @cached_property
    def at_risk(self) -> StepFunction:
        return classic_at_risk(self.dataset)

    @cached_property
    def exit_survival(self) -> StepFunction:
        return exit_survival(self.dataset)

    @cached_property
    def entry_cdf(self) -> StepFunction:
        return _cdf_step(self.dataset.a, self.n)

    @cached_property
    def residual_event_cdf(self) -> StepFunction:
        d = self.dataset
        return _cdf_step(d.v[d.delta == 1], self.n)

    @cached_property
    def pooled_cdf(self) -> StepFunction:
        return self.entry_cdf.combine(self.residual_event_cdf, np.add)

    @cached_property
    def entry_at_risk(self) -> StepFunction:
        return _geq_count_step(self.dataset.a, self.n)

    @cached_property
    def residual_at_risk(self) -> StepFunction:
        return _geq_count_step(self.dataset.v, self.n)

    @cached_property
    def pooled_at_risk(self) -> StepFunction:
        return self.entry_at_risk.combine(self.residual_at_risk, np.add)


def event_cdf(d: Dataset) -> StepFunction:
    """Fraction of subjects with an observed event by time t."""
    return _cdf_step(d.y[d.delta == 1], d.n)


def exit_survival(d: Dataset) -> StepFunction:
    """Fraction of subjects with total observed time >= t (closed)."""
    return _geq_count_step(d.y, d.n)


def classic_at_risk(d: Dataset) -> StepFunction:
    """Closed-interval at-risk proportion: fraction with a <= t <= y.

    Implemented as (#{a <= t} - #{y < t}) / n via two half-open counting
    processes, so the subject exiting at t is still at risk at t.
    """
    return _cdf_step(d.a, d.n).combine(exit_survival(d), np.add) - 1.0


def build_empirical(d: Dataset) -> EmpiricalProcesses:
    """Count the pooled and event tables of the sample in one pass.

    The step-function curves of the result are built when first read.
    """
    n = d.n

    # pooled sample: entry delays always contribute mass; residual times
    # contribute mass only when uncensored, but enter the risk count always
    pooled_times, where = np.unique(np.concatenate([d.a, d.v]), return_inverse=True)
    below = np.cumsum(np.bincount(where, minlength=pooled_times.size))
    pooled_at_risk_counts = 2 * n - np.concatenate(([0], below[:-1]))
    carries_mass = np.concatenate([np.ones(n, dtype=bool), d.delta == 1])
    pooled_jumps = np.bincount(where[carries_mass], minlength=pooled_times.size)
    is_mass = pooled_jumps > 0

    y_events = d.y[d.delta == 1]
    event_times, event_counts = (
        np.unique(y_events, return_counts=True) if y_events.size else (np.empty(0), np.empty(0, dtype=int))
    )

    return EmpiricalProcesses(
        dataset=d,
        pooled_times=pooled_times[is_mass],
        pooled_jumps=pooled_jumps[is_mass],
        pooled_at_risk_counts=pooled_at_risk_counts[is_mass],
        event_times=event_times,
        event_counts=event_counts,
    )
