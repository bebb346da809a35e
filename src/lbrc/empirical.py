"""Empirical processes of an LBRC sample: count tables and closed counts.

``build_empirical`` counts the processes that drive every estimator at the
points where they change:

* the pooled sample of entry delays and residual times, which share a
  marginal distribution under stationary length-biased sampling and can
  therefore be stacked into one 2n-point sample: its mass points, with their
  jump and at-risk counts;
* the distinct uncensored exit times, with their event counts.

"At risk" uses ">= t" (closed) semantics: the subject leaving at ``t`` still
counts at ``t``.  Such values are read from exact counts at the query points
(``count_at_most`` and ``count_at_least`` on a sorted column), never stored
as curves; the classic at-risk proportion, the fraction with entry delay
<= t <= exit, is one of them (``classic_at_risk``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset

__all__ = [
    "EmpiricalProcesses",
    "build_empirical",
    "classic_at_risk",
    "count_at_least",
    "count_at_most",
]


def count_at_most(column: np.ndarray, t) -> np.ndarray:
    """``#{x <= t}`` at the query points, for a sorted column x."""
    return np.searchsorted(column, t, side="right")


def count_at_least(column: np.ndarray, t) -> np.ndarray:
    """``#{x >= t}`` at the query points, for a sorted column x."""
    return column.size - np.searchsorted(column, t, side="left")


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


def classic_at_risk(d: Dataset) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-interval at-risk proportion as a function of t: fraction with a <= t <= y.

    Evaluated as ``#{a <= t}/n + #{y >= t}/n - 1``, so the subject exiting at
    t is still at risk at t.
    """
    a_sorted, y_sorted = np.sort(d.a), np.sort(d.y)

    def at_risk(t):
        return (count_at_most(a_sorted, t) / d.n + count_at_least(y_sorted, t) / d.n) - 1.0

    return at_risk


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
