"""Span tracing installed from outside the library.

A wrapper replaces a public function at the place where its caller looks it
up (a module attribute such as ``lbrc.cli.fit`` or a class attribute such as
``SmoothCumulative.query``).  Every call records one span: name, parent span,
start, end and optional counters.  Spans stay in memory; the run writes them
out when it ends.  ``restore`` puts every original back, so untraced rounds
run the library exactly as shipped.
"""

from __future__ import annotations

import functools
import time
import types


class Tracer:
    def __init__(self):
        # one list per span: [name, parent index or -1, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, attrs=None, count=None) -> None:
        """Trace ``owner.attr`` under ``name``.

        ``attrs`` are constant span attributes (such as the caller module);
        ``count(args, kwargs, result)`` returns counters measured per call.
        An attribute the owner does not define raises ``AttributeError``: a
        library refactor that moves a call must move its wrapper too, or the
        layer would silently read 0.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{getattr(owner, '__name__', owner)!s} defines no {attr!r} to trace")
        fixed = dict(attrs or {})
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, dict(fixed)]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4].update(count(args, kwargs, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def summarize(spans: list[list], start: int = 0, stop: int | None = None,
              group_prefixes=()) -> dict[str, dict]:
    """Per-name totals over ``spans[start:stop]``: calls, busy and self
    seconds, summed counters.

    ``busy`` counts only spans with no ancestor of the same name, so a
    function that re-enters itself is not counted twice; ``self`` is a span's
    duration minus the durations of its direct children.  Each prefix in
    ``group_prefixes`` (such as ``"truth."``) also gets a group total under
    the prefix without its trailing dot, with busy time taken over spans that
    have no ancestor in the group.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def has_ancestor(i, pred):
        p = spans[i][1]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][1]
        return False

    out: dict[str, dict] = {}

    def add(key, i, outermost):
        name, _, t0, t1, attrs = spans[i]
        s = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (t1 - t0) - child[i]
        if outermost:
            s["busy_s"] += t1 - t0
        for k, v in attrs.items():
            if k == "caller":
                k, v = f"calls_from_{v}", 1
            s[k] = s.get(k, 0) + v

    for i in range(start, len(spans) if stop is None else stop):
        name = spans[i][0]
        add(name, i, not has_ancestor(i, lambda other: other == name))
        for prefix in group_prefixes:
            if name.startswith(prefix):
                add(
                    prefix.rstrip("."),
                    i,
                    not has_ancestor(i, lambda other: other.startswith(prefix)),
                )
    return out


def covered_seconds(spans: list[list], start: int, t0: float, t1: float) -> float:
    """Seconds of [t0, t1] covered by the root spans recorded from ``start`` on."""
    total = 0.0
    for name, parent, s0, s1, _ in spans[start:]:
        if parent < 0:
            total += max(0.0, min(s1, t1) - max(s0, t0))
    return total


def span_cost_seconds(calls: int = 20000) -> float:
    """Extra seconds one traced call costs over an untraced one (best of 3)."""
    probe = types.SimpleNamespace(noop=lambda x: x)

    def loop():
        f = probe.noop
        t0 = time.perf_counter()
        for i in range(calls):
            f(i)
        return time.perf_counter() - t0

    plain = min(loop() for _ in range(3))
    with Tracer() as tracer:
        tracer.wrap(probe, "noop", "probe", count=lambda a, k, r: {"points": 1})
        traced = min(loop() for _ in range(3))
    return max(0.0, traced - plain) / calls
