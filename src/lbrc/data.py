"""The observation container for length-biased right-censored samples.

One subject record is ``(a, v, delta)``: the entry delay ``a`` (time from
onset to sampling), the observed residual time ``v`` (time from sampling to
event or censoring), and the event indicator ``delta``.  The total observed
time is ``y = a + v``.  Calendar onset times play no role in estimation and
are not stored.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataError

__all__ = ["Dataset"]


class Dataset:
    """Immutable column-wise sample of LBRC observations.

    Entry delays of exactly zero are accepted, here and in CSV ingestion, so
    that the no-truncation reductions (plain right-censored data) can be
    represented.
    """

    __slots__ = ("a", "v", "delta", "y", "n")

    def __init__(self, a, v, delta):
        a = np.asarray(a, dtype=float).reshape(-1)
        v = np.asarray(v, dtype=float).reshape(-1)
        delta = np.asarray(delta).reshape(-1)
        if not (a.size == v.size == delta.size):
            raise InvalidDataError("a, v and delta must have equal length")
        if a.size == 0:
            raise InvalidDataError("dataset must contain at least one observation")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise InvalidDataError("entry delays must be finite and >= 0")
        y = a + v
        if not np.all(np.isfinite(y)) or np.any(v < 0):
            raise InvalidDataError("residual times must be >= 0, with a + v finite")
        if not np.logical_or(delta == 0, delta == 1).all():
            raise InvalidDataError("event indicators must be 0 or 1")
        delta = delta.astype(np.int8)
        for arr in (a, v, delta, y):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n", int(a.size))

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, events={self.n_events})"
