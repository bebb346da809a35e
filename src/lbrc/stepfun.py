"""Piecewise-constant curves on the real line.

Every empirical curve and every fitted curve in this package is a step
function with finitely many jumps.  The canonical storage is right-continuous
(cadlag): ``values[i]`` is the value on ``[jump_times[i], jump_times[i+1])``
and ``initial_value`` is the value left of the first jump.  Closed (">= t")
at-risk values, which keep a subject in the risk set at its own exit time,
are not curves: they are read from counts at the query points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["StepFunction", "EvalGrid", "sup_norm_diff", "sup_diff_vs_smooth"]


def _as_float_array(x) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    if out.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    return out


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function.

    Parameters
    ----------
    jump_times : array
        Strictly increasing jump locations.
    values : array
        Value on ``[jump_times[i], jump_times[i+1])``.
    initial_value : float
        Value on ``(-inf, jump_times[0])``.
    """

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float

    def __post_init__(self):
        times = _as_float_array(self.jump_times)
        vals = _as_float_array(self.values)
        if times.shape != vals.shape:
            raise ValueError("jump_times and values must have equal length")
        if times.size and not np.all(np.diff(times) > 0):
            raise ValueError("jump_times must be strictly increasing")
        times = times.copy()
        vals = vals.copy()
        times.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "initial_value", float(self.initial_value))

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.empty(0), np.empty(0), value)

    def at(self, t):
        """Value at ``t`` (vectorized)."""
        return self._lookup(t, "right")

    def left_at(self, t):
        """Left limit at ``t`` (vectorized)."""
        return self._lookup(t, "left")

    def _lookup(self, t, side: str):
        """Value at ``t`` for side "right", left limit at ``t`` for "left"."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        if self.jump_times.size == 0:
            out = np.full(tq.shape, self.initial_value)
            return float(out[0]) if scalar else out
        idx = np.searchsorted(self.jump_times, tq, side=side) - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], self.initial_value)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation window: sorted points in ``(0, b]`` with upper endpoint b.

    The first grid point doubles as the lower edge of the evaluation window
    for window-restricted integrals (risk sets vanish at 0 under entry-delay
    sampling, so integrals anchored at 0 would diverge).
    """

    points: np.ndarray
    b: float

    def __post_init__(self):
        pts = _as_float_array(self.points)
        if pts.size == 0:
            raise ValueError("grid must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] <= 0:
            raise ValueError("grid points must be positive")
        b = float(self.b)
        if pts[-1] > b:
            raise ValueError("grid points must not exceed b")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "b", b)

    @property
    def lower(self) -> float:
        return float(self.points[0])

    @classmethod
    def of_points(cls, points) -> "EvalGrid":
        pts = _as_float_array(points)
        if pts.size == 0:
            raise ValueError("grid must contain at least one point")
        return cls(pts, float(pts[-1]))


def _candidate_points(f: StepFunction, g: StepFunction, grid: EvalGrid) -> np.ndarray:
    jumps = np.concatenate([f.jump_times, g.jump_times])
    jumps = jumps[(jumps > 0.0) & (jumps <= grid.b)]
    return np.union1d(grid.points, jumps)


def sup_norm_diff(f: StepFunction, g: StepFunction, grid: EvalGrid) -> float:
    """Largest absolute gap between two step functions over the grid closure.

    Evaluates at every grid point and, for each jump of either function inside
    ``(0, b]``, at the jump itself and its left limit, so the supremum over
    the continuous window is captured exactly for piecewise-constant inputs.
    """
    pts = _candidate_points(f, g, grid)
    gap = np.abs(f.at(pts) - g.at(pts))
    gap_left = np.abs(f.left_at(pts) - g.left_at(pts))
    return float(max(gap.max(), gap_left.max()))


def sup_diff_vs_smooth(
    f: StepFunction, fn: Callable, lo: float, hi: float, extra_points=None
) -> float:
    """Sup of ``|f - fn|`` over ``[lo, hi]`` for continuous monotone ``fn``.

    The supremum of a step-versus-monotone-continuous difference is attained
    at a jump (from either side) or at the window endpoints; all of those are
    checked, along with any extra points supplied.
    """
    jumps = f.jump_times
    jumps = jumps[(jumps >= lo) & (jumps <= hi)]
    cand = [jumps, np.asarray([lo, hi], dtype=float)]
    if extra_points is not None:
        extra = np.asarray(extra_points, dtype=float)
        cand.append(extra[(extra >= lo) & (extra <= hi)])
    pts = np.unique(np.concatenate(cand))
    smooth = np.asarray(fn(pts), dtype=float)
    gap = np.abs(f.at(pts) - smooth)
    gap_left = np.abs(f.left_at(pts) - smooth)
    return float(max(gap.max(), gap_left.max()))
