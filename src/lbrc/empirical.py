"""Empirical processes of an LBRC sample: count tables and two classic curves.

``build_empirical`` counts the processes that drive every estimator at the
points where they change:

* the pooled sample of entry delays and residual times, which share a
  marginal distribution under stationary length-biased sampling and can
  therefore be stacked into one 2n-point sample: its mass points, with their
  jump and at-risk counts;
* the distinct uncensored exit times, with their event counts.

The classic processes over total observed times are step functions built on
demand: the exit survival (``exit_survival``) and the closed-interval at-risk
proportion, the fraction with entry delay <= t <= exit (``classic_at_risk``).

"At risk" counts and curves use ">= t" (closed) semantics: the subject leaving
at ``t`` still counts at ``t``.  The curves store this as an at-jump value,
the left limit of the strictly-greater count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .stepfun import StepFunction

__all__ = [
    "EmpiricalProcesses",
    "build_empirical",
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
    """The integer count tables of one dataset.

    ``pooled_times`` are the mass points of the pooled sample, with their
    jump counts ``pooled_jumps`` and closed at-risk counts
    ``pooled_at_risk_counts`` (#{a >= s} + #{v >= s}); ``event_times`` are the
    distinct uncensored exit times, with ``event_counts``.  Product-limit
    factors and influence values need the pooled processes only at these
    points, where the counts are exact.
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


def exit_survival(d: Dataset) -> StepFunction:
    """Fraction of subjects with total observed time >= t (closed)."""
    return _geq_count_step(d.y, d.n)


def classic_at_risk(d: Dataset) -> StepFunction:
    """Closed-interval at-risk proportion: fraction with a <= t <= y.

    Implemented as (#{a <= t} - #{y < t}) / n via two half-open counting
    processes, so the subject exiting at t is still at risk at t.
    """
    return _cdf_step(d.a, d.n).combine(exit_survival(d), lambda x, y: x + y - 1.0)


def build_empirical(d: Dataset) -> EmpiricalProcesses:
    """Count the pooled and event tables of the sample in one pass."""
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
