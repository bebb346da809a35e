"""Independent literal-definition evaluators used as test oracles.

Everything here is written as plain double loops over the raw observations,
with no sorting, merging, or shared code with the package internals.  The
stated conventions (0/0 skips, the 1/n hazard-denominator floor, per-factor
clamping into [0, 1]) are applied exactly as documented so the comparisons
are exact.

Several helpers are exceptions.  ``FunctionPopulation`` gives an oracle influence
context raw population callables, so tests can run the package's oracle code
against small hand-made populations.  ``ClosedFormExponential`` and
``ClosedFormWeibull`` write each lifetime function of a family out in closed
form, each with its own scalar rule, the reference for the truth models that
derive them from the cumulative hazard.  ``observed_time_quantile`` finds a
quantile of the observed exit time with ``scipy.optimize.brentq``, for tests
that place a window end there.  ``oracle_tables_one_build_each``
builds an oracle context's tables one density at a time with
``density_table``, the reference for the tables built from one evaluation
of the population.  ``mpmath_tables_at``
integrates the m, p and w densities of a truth model, written out from its
definition, by 30-digit mpmath quadrature, and ``TABLE_REFERENCE`` stores
its values from ``table_reference_literals``: the reference for the tables'
accuracy; ``mpmath_right_tables_at`` and ``RIGHT_TABLE_REFERENCE`` do the
same for the g and v tables, anchored at the window end.
``mpmath_gamma2_quantile`` solves for the length-biased exponential
quantile in mpmath, and ``GAMMA2_REFERENCE`` stores its 40-digit roots from
``gamma2_reference_literals``: the reference for ``lb_quantile``'s accuracy.
``oracle_subject_influence_loop``
evaluates the oracle influence values one time at a time from the context's
m, p and w tables and two tables anchored below the sample (``_anchor`` and
``_anchored_table``, the algorithm the package used before its g and v
tables), the reference for the package's shared evaluator and its tables
anchored at the window end.  ``influence_means_fine_panels`` sums the oracle
sample means over the panels between every data point, with the same
anchored table, the reference for the package's sums over the entry and
residual breaks.  ``locate_one_search`` and
``read_clenshaw_expression`` place points with one search per point and sum
each Clenshaw step as one expression, the references for the edge count and
the in-place recurrence of ``SmoothCumulative``, and
``oracle_subject_influence_time_blocks`` evaluates oracle influence values
over blocks of times from them, the reference for the package's blocks of
subjects.
``plugin_subject_influence_rowwise``
evaluates the plugin influence values one time at a time from the context's
prefix sums, the reference for the package's coefficient form, and
``plugin_variance_one_shot`` takes the plugin variance from it over the whole
sample at once, the reference for the chunked ``plugin_variance``.  The
``*_csv_one_shot`` writers build every line of a file in one list and write
it at once, the reference for the block writers of ``lbrc.io``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lbrc.truth import ExponentialModel, WeibullModel


def r_bar_at(d, t):
    return sum(1 for i in range(d.n) if d.a[i] <= t <= d.y[i]) / d.n


def _pooled_mass_points(d):
    pts = set()
    for i in range(d.n):
        pts.add(float(d.a[i]))
        if d.delta[i] == 1:
            pts.add(float(d.v[i]))
    return pts


def distinct_event_times(d):
    return sorted({float(d.y[i]) for i in range(d.n) if d.delta[i] == 1})


def event_fraction_at(d, u):
    return sum(1 for i in range(d.n) if d.delta[i] == 1 and d.y[i] == u) / d.n


def plugin_lil_at(d, lower, t, risk_at, cdf_at):
    """Plugin fluctuation curves ``(d, v)`` at t from their definition.

    ``d`` sums, over the distinct event times u in (lower, t], the event
    fraction at u over the squared fitted risk ``risk_at(u)`` floored at 1/n;
    ``v`` is ``sqrt(clip(1 - cdf_at(t), 0, 1) * d)``.
    """
    total = 0.0
    for u in distinct_event_times(d):
        if lower < u <= t:
            total += event_fraction_at(d, u) / max(risk_at(u), 1.0 / d.n) ** 2
    return total, float(np.sqrt(min(max(1.0 - cdf_at(t), 0.0), 1.0) * total))


def entry_survival_at(d, t):
    prod = 1.0
    for u in _pooled_mass_points(d):
        if u > t:
            continue
        jump = sum(1 for i in range(d.n) if d.a[i] == u) + sum(
            1 for i in range(d.n) if d.delta[i] == 1 and d.v[i] == u
        )
        at_risk = sum(1 for i in range(d.n) if d.a[i] >= u) + sum(
            1 for i in range(d.n) if d.v[i] >= u
        )
        if at_risk > 0:
            prod *= 1.0 - jump / at_risk
    return prod


def combined_risk_at(d, t):
    exit_surv = sum(1 for i in range(d.n) if d.y[i] >= t) / d.n
    return exit_surv - entry_survival_at(d, t)


def combined_cumhaz_at(d, t):
    total = 0.0
    for u in {float(d.y[i]) for i in range(d.n) if d.delta[i] == 1}:
        if u > t:
            continue
        dn = sum(1 for i in range(d.n) if d.delta[i] == 1 and d.y[i] == u) / d.n
        total += dn / max(combined_risk_at(d, u), 1.0 / d.n)
    return total


def classic_cumhaz_at(d, t):
    total = 0.0
    for u in {float(d.y[i]) for i in range(d.n) if d.delta[i] == 1}:
        if u > t:
            continue
        dn = sum(1 for i in range(d.n) if d.delta[i] == 1 and d.y[i] == u) / d.n
        total += dn / max(r_bar_at(d, u), 1.0 / d.n)
    return total


def entry_cumhaz_at(d, t):
    total = 0.0
    for u in _pooled_mass_points(d):
        if u > t:
            continue
        jump = sum(1 for i in range(d.n) if d.a[i] == u) + sum(
            1 for i in range(d.n) if d.delta[i] == 1 and d.v[i] == u
        )
        at_risk = sum(1 for i in range(d.n) if d.a[i] >= u) + sum(
            1 for i in range(d.n) if d.v[i] >= u
        )
        if at_risk > 0:
            total += jump / at_risk
    return total


def tjw_cdf_at(d, x):
    prod = 1.0
    order = sorted(range(d.n), key=lambda i: d.y[i])
    for i in order:
        if d.y[i] <= x and d.delta[i] == 1:
            at_risk = sum(1 for j in range(d.n) if d.a[j] <= d.y[i] <= d.y[j])
            prod *= 1.0 - 1.0 / at_risk
    return 1.0 - prod


def huang_qin_cdf_at(d, t):
    prod = 1.0
    for u in sorted({float(d.y[i]) for i in range(d.n) if d.delta[i] == 1}):
        if u > t:
            continue
        dn = sum(1 for i in range(d.n) if d.delta[i] == 1 and d.y[i] == u) / d.n
        inc = dn / max(combined_risk_at(d, u), 1.0 / d.n)
        prod *= min(max(1.0 - inc, 0.0), 1.0)
    return 1.0 - prod


def safeguarded_cdf_at(d, x):
    prod = 1.0
    order = sorted(range(d.n), key=lambda i: d.y[i])
    for i in order:
        if d.y[i] <= x and d.delta[i] == 1:
            denom = d.n * combined_risk_at(d, float(d.y[i])) + 1.0
            factor = 1.0 - 1.0 / denom
            prod *= min(max(factor, 0.0), 1.0)
    return 1.0 - prod


ALL_ESTIMATOR_ORACLES = {
    "entry_survival": entry_survival_at,
    "combined_risk": combined_risk_at,
    "classic_cumhaz": classic_cumhaz_at,
    "combined_cumhaz": combined_cumhaz_at,
    "tjw_cdf": tjw_cdf_at,
    "cdf": huang_qin_cdf_at,
    "cdf_safeguarded": safeguarded_cdf_at,
    "entry_cumhaz": entry_cumhaz_at,
}


def kaplan_meier_cdf_at(times, events, x):
    """Textbook event-table Kaplan-Meier for right-censored data."""
    prod = 1.0
    for u in sorted({t for t, e in zip(times, events) if e == 1}):
        if u > x:
            continue
        deaths = sum(1 for t, e in zip(times, events) if e == 1 and t == u)
        at_risk = sum(1 for t in times if t >= u)
        prod *= 1.0 - deaths / at_risk
    return 1.0 - prod


def nelson_aalen_at(times, events, x):
    """Textbook Nelson-Aalen cumulative hazard for right-censored data."""
    total = 0.0
    for u in {t for t, e in zip(times, events) if e == 1}:
        if u > x:
            continue
        deaths = sum(1 for t, e in zip(times, events) if e == 1 and t == u)
        at_risk = sum(1 for t in times if t >= u)
        total += (deaths / len(times)) / (at_risk / len(times))
    return total


def lynden_bell_cdf_at(entries, times, x):
    """Truncation-only product-limit estimate, straight from its definition."""
    prod = 1.0
    for i in sorted(range(len(times)), key=lambda j: times[j]):
        if times[i] <= x:
            at_risk = sum(
                1 for j in range(len(times)) if entries[j] <= times[i] <= times[j]
            )
            prod *= 1.0 - 1.0 / at_risk
    return 1.0 - prod


def pooled_kaplan_meier_at(points, x):
    """Standard Kaplan-Meier on a plain all-events sample (one jump per point)."""
    prod = 1.0
    for u in sorted(points):
        if u > x:
            continue
        deaths = sum(1 for p in points if p == u)
        at_risk = sum(1 for p in points if p >= u)
        prod *= 1.0 - deaths / at_risk
    return prod


@dataclass(frozen=True)
class FunctionPopulation:
    """Population from raw callables, with the methods an oracle context reads."""

    r_fn: Callable
    s_a_fn: Callable
    k_fn: Callable
    q_density: Callable
    fu_density: Callable

    def risk(self, u):
        return self.r_fn(u)

    def entry_survival(self, u):
        return self.s_a_fn(u)

    def pooled_at_risk(self, u):
        return self.k_fn(u)

    def pooled_density(self, u):
        return self.q_density(u)

    def event_subdist_density(self, u):
        return self.fu_density(u)

    def entry_cdf(self, u):
        return 1.0 - np.asarray(self.s_a_fn(u), dtype=float)

    def entry_terms(self, u):
        return self.entry_survival(u), self.entry_cdf(u), self.pooled_at_risk(u)

    def influence_weight(self, u):
        r = np.asarray(self.r_fn(u), dtype=float)
        return np.asarray(self.fu_density(u), dtype=float) / r**2

    def in_units(self, unit):
        """The population with time counted in ``unit``: each function read
        at ``u * unit``, each density times ``unit``."""

        def at(fn, scale=1.0):
            return lambda u: scale * np.asarray(fn(np.asarray(u, dtype=float) * unit), dtype=float)

        return FunctionPopulation(
            at(self.r_fn), at(self.s_a_fn), at(self.k_fn),
            at(self.q_density, unit), at(self.fu_density, unit),
        )


class _ClosedFormTruth:
    """The population functions that take one argument elementwise, each
    with its own scalar rule."""

    def entry_cumhaz(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = -np.log(self.entry_survival(t))
        return out if out.ndim else float(out)

    def censor_survival(self, t):
        t = np.asarray(t, dtype=float)
        if self.censor_rate is None:
            out = np.ones_like(t)
        else:
            out = np.exp(-self.censor_rate * t)
        return out if out.ndim else float(out)

    def wc(self, t):
        t = np.asarray(t, dtype=float)
        if self.censor_rate is None:
            out = t.astype(float)
        else:
            out = -np.expm1(-self.censor_rate * t) / self.censor_rate
        return out if out.ndim else float(out)


class ClosedFormExponential(_ClosedFormTruth, ExponentialModel):
    """``ExponentialModel`` with every lifetime function in closed form."""

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-self.rate * t)
        return out if out.ndim else float(out)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        out = self.rate * np.exp(-self.rate * t)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = -np.expm1(-self.rate * t)
        return out if out.ndim else float(out)

    def cumhaz(self, t):
        t = np.asarray(t, dtype=float)
        out = self.rate * t
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = -np.log1p(-p) / self.rate
        return out if out.ndim else float(out)

    def lb_quantile(self, p):
        from scipy import special

        p = np.asarray(p, dtype=float)
        out = special.gammaincinv(2.0, p) / self.rate
        return out if out.ndim else float(out)

    def entry_survival(self, t):
        return self.survival(t)

    def entry_cdf(self, t):
        return self.cdf(t)

    def entry_cumhaz(self, t):
        return self.cumhaz(t)


class ClosedFormWeibull(_ClosedFormTruth, WeibullModel):
    """``WeibullModel`` with every lifetime function in closed form."""

    def _z(self, t):
        return (np.asarray(t, dtype=float) / self.scale) ** self.shape

    def survival(self, t):
        out = np.exp(-self._z(t))
        return out if out.ndim else float(out)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        k, th = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                t > 0, (k / th) * (t / th) ** (k - 1.0) * np.exp(-self._z(t)), 0.0
            )
        return out if out.ndim else float(out)

    def cdf(self, t):
        out = -np.expm1(-self._z(t))
        return out if out.ndim else float(out)

    def cumhaz(self, t):
        out = self._z(t)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)
        return out if out.ndim else float(out)

    def lb_quantile(self, p):
        from scipy import special

        p = np.asarray(p, dtype=float)
        out = self.scale * special.gammaincinv(1.0 + 1.0 / self.shape, p) ** (1.0 / self.shape)
        return out if out.ndim else float(out)

    def entry_survival(self, t):
        from scipy import special

        out = special.gammaincc(1.0 / self.shape, self._z(t))
        return out if out.ndim else float(out)

    def entry_cdf(self, t):
        from scipy import special

        out = special.gammainc(1.0 / self.shape, self._z(t))
        return out if out.ndim else float(out)


def observed_time_quantile(model, q: float) -> float:
    """The q quantile of the observed exit time: the root of
    ``model.exit_cdf(t) = q`` by ``scipy.optimize.brentq``.

    The exit time never exceeds the lifetime, so the exit CDF is at least q at
    the length-biased lifetime's q quantile; twice that leaves room for
    rounding, and a tolerance relative to it holds at every time scale.
    """
    from scipy import optimize

    hi = 2.0 * float(model.lb_quantile(q))
    return optimize.brentq(lambda t: model.exit_cdf(t) - q, 0.0, hi, xtol=1e-14 * hi)


def plugin_subject_influence_rowwise(ctx, a, v, delta, times, event_gain):
    """Plugin ``subject_influence`` evaluated one time at a time.

    ``event_gain`` (one value per distinct event time) multiplies every term
    of each event's hazard increment.  Each row reads the event prefix sums
    at every subject's search positions, clipped at the time's own position,
    term by term as the influence formulas are written; the package builds
    per-subject coefficients instead and evaluates all times in one pass.
    """
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    delta, times = np.asarray(delta).astype(float), np.asarray(times, dtype=float)
    emp = ctx.curves.empirical
    u, s = emp.event_times, emp.pooled_times
    y = a + v
    pooled_weight, pooled_m_prefix = ctx.pooled
    idx_pa = np.searchsorted(s, a, side="right")
    idx_pv = np.searchsorted(s, v, side="right")
    idx_a_left = np.searchsorted(u, a, side="left")
    idx_a_right = np.searchsorted(u, a, side="right")
    idx_v_left = np.searchsorted(u, v, side="left")
    idx_v_right = np.searchsorted(u, v, side="right")
    idx_y_right = np.searchsorted(u, y, side="right")
    event = delta == 1
    at_y = idx_y_right[event] - 1
    m_a = pooled_m_prefix[idx_pa]
    m_v = pooled_m_prefix[idx_pv]
    inv_k_a = pooled_weight[idx_pa - 1]
    inv_k_v = np.where(event, pooled_weight[idx_pv - 1], 0.0)
    own_event = np.zeros(a.size)
    own_event[event] = 1.0 / ctx.curves.hazard_steps[1][at_y]
    w = ctx.event_w * event_gain
    own_event[event] *= event_gain[at_y]
    entry_surv, m_u = ctx.event_entry_m
    ws = w * entry_surv
    pref_w, pref_ws, pref_wsm = (
        np.concatenate(([0.0], np.cumsum(x))) for x in (w, ws, ws * m_u)
    )
    pooled_prefix_at = lambda x: pooled_m_prefix[np.searchsorted(s, x, side="right")]

    phi = np.zeros((times.size, a.size))
    psi1 = np.zeros_like(phi)
    psi2 = np.zeros_like(phi)
    for j, t in enumerate(times):
        kt = int(np.searchsorted(u, t, side="right"))
        a_le = a <= t
        v_le = v <= t
        y_le = y <= t

        jump_a = np.where(a_le, inv_k_a, 0.0)
        jump_v = np.where(v_le, inv_k_v, 0.0)
        m_at_t = float(pooled_prefix_at(t))
        phi[j] = (
            np.where(a_le, m_a, m_at_t) + np.where(v_le, m_v, m_at_t) - jump_a - jump_v
        )

        ky = np.minimum(idx_y_right, kt)
        ja = np.minimum(idx_a_left, ky)
        psi1[j] = pref_w[ky] - pref_w[ja] - np.where(y_le, own_event, 0.0)

        ja_t = np.minimum(idx_a_left, kt)
        ia_t = np.minimum(idx_a_right, kt)
        iv_t = np.minimum(idx_v_right, kt)
        jv_t = np.minimum(idx_v_left, kt)
        t1 = pref_w[ja_t]
        t2 = -pref_ws[kt]
        t3 = pref_wsm[ia_t] + m_a * (pref_ws[kt] - pref_ws[ia_t])
        t4 = pref_wsm[iv_t] + m_v * (pref_ws[kt] - pref_ws[iv_t])
        t5 = inv_k_a * (pref_ws[kt] - pref_ws[ja_t])
        t6 = inv_k_v * (pref_ws[kt] - pref_ws[jv_t])
        psi2[j] = t1 + t2 - (t3 + t4) + t5 + t6
    return phi, psi1, psi2


def density_table(density, edges, right=False):
    """The ``SmoothCumulative`` of ``density`` on ``edges``, from its values
    at the nodes, read with float warnings off."""
    from lbrc.quadrature import SmoothCumulative, node_points

    with np.errstate(all="ignore"):
        return SmoothCumulative(edges, density(node_points(edges).ravel()), right=right)


def oracle_tables_one_build_each(ctx):
    """The m, p, w, g and v tables of an oracle context, each built from its
    own density on the context's edges, so the population is evaluated once
    per table: the reference for ``OracleContext.tables``."""
    from lbrc.influence import _TABLE_PANELS
    from lbrc.quadrature import origin_graded_edges

    model = ctx.model.in_units(ctx.unit)
    edges = origin_graded_edges(ctx.grid.b / ctx.unit, _TABLE_PANELS)

    def rho(u):
        return np.asarray(model.influence_weight(u), dtype=float)

    def rho_s_a(u):
        return rho(u) * np.asarray(model.entry_survival(u), dtype=float)

    m_table = density_table(
        lambda u: np.asarray(model.pooled_density(u), dtype=float)
        / np.asarray(model.pooled_at_risk(u), dtype=float) ** 2,
        edges,
    )
    p_table = density_table(
        lambda u: rho(u) * np.asarray(model.entry_cdf(u), dtype=float), edges
    )
    w_table = density_table(lambda u: rho_s_a(u) * m_table.query(u), edges)
    g_table = density_table(rho, edges, right=True)
    v_table = density_table(rho_s_a, edges, right=True)
    return m_table, p_table, w_table, g_table, v_table


def _anchor(ctx, a, v) -> float:
    """Lower edge of the anchored tables: just below the smallest positive a or v.

    No positive data point lies below it, so every difference of an anchored
    cumulative that the influence values take has both ends at or above it.
    """
    positive = np.concatenate([a, v[v > 0]])
    return min(0.999 * positive.min(initial=np.inf), 0.5 * ctx.grid.b)


def _anchored_table(ctx, anchor: float, density):
    """Cumulative of a density that diverges at 0, from ``anchor`` to the window end."""
    from lbrc.quadrature import geometric_edges

    return density_table(density, geometric_edges(anchor, ctx.grid.b, ratio=1.12))


def oracle_subject_influence_loop(ctx, a, v, delta, times):
    """Oracle ``subject_influence`` evaluated one time at a time.

    Each row reads the smooth tables ``m``, ``p`` and ``w`` and two tables
    anchored below the sample, of ``rho`` and of ``rho S_A``, at every
    subject's a, v and y and at the time, term by term as the influence
    formulas are written; the package reads the cumulative of ``rho`` as
    ``p`` plus its ``v`` table, anchored at the window end, and evaluates
    blocks of subjects at once from per-subject constants.
    """
    from lbrc.errors import ComputeError
    from lbrc.influence import _check_oracle_sample

    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    delta, times = np.asarray(delta).astype(float), np.asarray(times, dtype=float)
    _check_oracle_sample(ctx, a, v, delta)
    y = a + v
    model = ctx.model
    m_t, p_t, w_t = ctx.tables[:3]

    pos_v = v > 0
    anchor = _anchor(ctx, a, v)
    g_t = _anchored_table(ctx, anchor, model.influence_weight)
    v_tab = _anchored_table(
        ctx,
        anchor,
        lambda u: np.asarray(model.influence_weight(u), dtype=float)
        * np.asarray(model.entry_survival(u), dtype=float),
    )

    def clipped(table, x, unit=1.0):
        # values beyond the window end are masked by the ``<= t`` clauses
        # that read them, or multiplied by a masked zero; the context's
        # tables count time in its unit, the anchored ones in the model's
        return table.query(np.clip(x / unit, table.lo, table.hi))

    m_a, m_v = clipped(m_t, a, ctx.unit), clipped(m_t, v, ctx.unit)
    w_a, w_v = clipped(w_t, a, ctx.unit), clipped(w_t, v, ctx.unit)
    g_a, g_y = clipped(g_t, a), clipped(g_t, y)
    v_a, v_v = clipped(v_tab, a), clipped(v_tab, v)

    k_a = np.asarray(model.pooled_at_risk(a), dtype=float)
    k_v = np.asarray(model.pooled_at_risk(v), dtype=float)
    r_y = np.asarray(model.risk(y), dtype=float)
    tmax = float(times.max()) if times.size else 0.0
    if np.any((a <= tmax) & (k_a <= 0)) or np.any(
        (v <= tmax) & (delta == 1) & (k_v <= 0)
    ):
        raise ComputeError("pooled at-risk function vanishes at an observed point")
    if np.any((y <= tmax) & (delta == 1) & (r_y <= 0)):
        raise ComputeError("risk function vanishes at an observed event time")
    k_a_safe = np.where(k_a > 0, k_a, 1.0)
    k_v_safe = np.where(k_v > 0, k_v, 1.0)
    r_y_safe = np.where(r_y > 0, r_y, 1.0)

    phi = np.empty((times.size, a.size))
    psi1 = np.empty_like(phi)
    psi2 = np.empty_like(phi)

    for j, t in enumerate(times):
        m_at_t = m_t.query(t / ctx.unit)
        p_at_t = p_t.query(t / ctx.unit)
        w_at_t = w_t.query(t / ctx.unit)
        in_anchor = t >= anchor
        g_at_t = g_t.query(t) if in_anchor else 0.0
        v_at_t = v_tab.query(t) if in_anchor else 0.0

        a_le = a <= t
        v_le = v <= t
        y_le = y <= t

        jump_a = np.where(a_le, 1.0 / k_a_safe, 0.0)
        jump_v = np.where(v_le & (delta == 1), 1.0 / k_v_safe, 0.0)
        phi[j] = (
            np.where(a_le, m_a, m_at_t) + np.where(v_le, m_v, m_at_t) - jump_a - jump_v
        )

        integral = np.where(a_le, np.where(y_le, g_y, g_at_t) - g_a, 0.0)
        psi1[j] = integral - np.where(y_le, delta / r_y_safe, 0.0)

        part_a = p_at_t - np.where(a_le, g_at_t - g_a, 0.0)
        vdiff_a = np.where(a_le, v_at_t - v_a, 0.0)
        vdiff_v = np.where(v_le & pos_v, v_at_t - v_v, 0.0)
        x_i = (
            np.where(a_le, w_a, w_at_t)
            + m_a * vdiff_a
            + np.where(v_le, w_v, w_at_t)
            + m_v * vdiff_v
            - jump_a * vdiff_a
            - jump_v * vdiff_v
        )
        psi2[j] = part_a - x_i
    return phi, psi1, psi2


def plugin_variance_one_shot(ctx):
    """``plugin_variance`` over all subjects at once, from the row-wise values.

    The summand is ``(1 - F(t)) (psi1 + psi2)`` with the product-limit gain,
    and each row's variance is taken over the whole sample in one pass.
    """
    d, grid = ctx.dataset, ctx.grid
    factor = 1.0 - ctx.curves.hazard_steps[0]
    open_factor = factor > 0
    gain = np.where(open_factor, 1.0 / np.where(open_factor, factor, 1.0), 0.0)
    _, psi1, psi2 = plugin_subject_influence_rowwise(
        ctx, d.a, d.v, d.delta, grid.points, event_gain=gain
    )
    scale = 1.0 - ctx.curves.cdf.at(grid.points)
    return (scale[:, None] * (psi1 + psi2)).var(axis=1) / d.n


def _write_lines(path, lines):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)


def dataset_csv_one_shot(path, d):
    """``write_dataset_csv``, every line built before the file is written."""
    rows = zip(d.a.tolist(), d.v.tolist(), d.delta.tolist())
    _write_lines(path, ["a,v,delta\n"] + [f"{a!r},{v!r},{dlt}\n" for a, v, dlt in rows])


def curve_csv_one_shot(path, step, name, n_obs, cfg_hash, extra_points=None):
    """``write_curve_csv``, every line built before the file is written."""
    pts = step.jump_times
    if extra_points is not None:
        pts = np.union1d(pts, np.asarray(extra_points, dtype=float))
    head = [f"# estimator={name}\n", f"# n={n_obs}\n", f"# config={cfg_hash}\n", "t,value\n"]
    rows = zip(pts.tolist(), step.at(pts).tolist())
    _write_lines(path, head + [f"{t!r},{val!r}\n" for t, val in rows])


def rate_report_csv_one_shot(path, report, cfg_hash):
    """``write_rate_report_csv``, every line built before the file is written."""
    sizes = [int(n) for n in report.sample_sizes.tolist()]
    lines = [
        f"# which={report.which}\n",
        f"# config={cfg_hash}\n",
        f"# seed={report.seed}\n",
        f"# slope={float(report.slope)!r}\n",
        f"# target_exponent={float(report.target_exponent)!r}\n",
    ]
    lines += [f"# median n={n}: {med!r}\n" for n, med in zip(sizes, report.medians.tolist())]
    lines.append("n,rep,sup_residual\n")
    for n, sups in zip(sizes, report.sup_residuals.tolist()):
        lines += [f"{n},{r},{sup!r}\n" for r, sup in enumerate(sups)]
    _write_lines(path, lines)


def influence_csv_one_shot(path, rows, n_obs, level, cfg_hash):
    """``write_influence_csv`` from rows of (t, cdf, se, ci_low, ci_high, d, v),
    every line built before the file is written."""
    head = [
        "# estimator=huang-qin\n",
        f"# n={n_obs}\n",
        f"# level={float(level)!r}\n",
        f"# config={cfg_hash}\n",
        "t,cdf,se,ci_low,ci_high,d,v\n",
    ]
    _write_lines(path, head + [",".join(repr(float(x)) for x in row) + "\n" for row in rows])


def influence_means_fine_panels(ctx, d, times, want="both"):
    """``influence_means`` summed over the fine panels between all data points.

    The breaks are 0, the times and every a, v and y up to the largest time
    (3n + T + 1 points at most).  Each sample step function is constant on a
    panel between two breaks, so each mean is a sum over the panels of a
    constant times an oracle-table difference; the risk correction is folded
    onto the coarser panels between 0, the times, a and v.  The reference for
    the package's sums over the coarse breaks with a per-subject direct
    hazard term.
    """
    from lbrc.empirical import build_empirical
    from lbrc.influence import OracleContext, _check_oracle_sample

    if not isinstance(ctx, OracleContext):
        raise ValueError("influence_means requires an oracle context")
    if want not in ("phi", "both"):
        raise ValueError(f"want must be 'phi' or 'both', got {want!r}")
    _check_oracle_sample(ctx, d.a, d.v, d.delta)
    times = np.asarray(times, dtype=float).reshape(-1)
    tmax = float(times.max())
    n = d.n
    model = ctx.model
    m_table, p_table, w_table = ctx.tables[:3]

    # the breaks are the points up to tmax; ``where`` places a, v, y, the
    # times and 0 among them
    points, where = np.unique(
        np.concatenate([d.a, d.v, d.y, times, [0.0]]), return_inverse=True
    )
    t_idx = where[3 * n : -1]
    breaks = points[: t_idx.max() + 1]
    left = breaks[:-1]
    # #{a <= b}, #{v <= b} and #{y <= b} at the left break b of each panel
    le_a, le_v, le_y = (
        np.cumsum(np.bincount(where[k * n : (k + 1) * n], minlength=points.size))[: left.size]
        for k in range(3)
    )
    bar_a = (n - le_a) / n
    k_panel = (2 * n - le_a - le_v) / n
    r_bar_panel = (le_a - le_y) / n

    emp = build_empirical(d)

    # entry influence mean: smooth part against the pooled measure minus the
    # exact pooled-sample jump sum
    in_range = emp.pooled_times <= tmax
    s_pool = emp.pooled_times[in_range]
    dq_pool = emp.pooled_jumps[in_range] / n
    k_pop_pool = np.asarray(model.pooled_at_risk(s_pool), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump_terms = np.where(k_pop_pool > 0, dq_pool / np.where(k_pop_pool > 0, k_pop_pool, 1.0), 0.0)
    jump_prefix = np.concatenate(([0.0], np.cumsum(jump_terms)))

    m_at_breaks = m_table.query(breaks / ctx.unit)
    phi_smooth_prefix = np.concatenate(([0.0], np.cumsum(k_panel * np.diff(m_at_breaks))))
    phi_at_breaks = phi_smooth_prefix - jump_prefix[
        np.searchsorted(s_pool, breaks, side="right")
    ]
    out = {"mean_phi": phi_at_breaks[t_idx]}
    if want == "phi":
        return out

    # g is tabulated from the anchor on; the panels left of it carry no dg
    anchor = _anchor(ctx, d.a, d.v)
    g_at_breaks = _anchored_table(ctx, anchor, model.influence_weight).query(
        np.maximum(breaks, anchor)
    )
    dg = np.where(left >= anchor, np.diff(g_at_breaks), 0.0)

    # direct hazard influence mean
    ev_in = emp.event_times <= tmax
    u_ev = emp.event_times[ev_in]
    dn_ev = emp.event_counts[ev_in] / n
    r_pop_ev = np.asarray(model.risk(u_ev), dtype=float)
    event_prefix = np.concatenate(([0.0], np.cumsum(dn_ev / r_pop_ev)))
    psi1_prefix = np.concatenate(([0.0], np.cumsum(r_bar_panel * dg)))
    out["mean_psi1"] = psi1_prefix[t_idx] - event_prefix[
        np.searchsorted(u_ev, times, side="right")
    ]

    # risk-correction influence mean, over the coarse panels; p and w are
    # read at their ends only
    coarse = np.zeros(points.size, dtype=bool)
    coarse[where[: 2 * n]] = True
    coarse[where[3 * n :]] = True
    coarse = np.flatnonzero(coarse[: breaks.size])
    lo = coarse[:-1]
    c = 1.0 + phi_at_breaks[lo] - k_panel[lo] * m_at_breaks[lo]
    at_coarse = p_table.locate(breaks[coarse] / ctx.unit)
    psi2_panel = (
        (bar_a[lo] - c) * np.add.reduceat(dg, lo)
        + c * np.diff(p_table.read(at_coarse))
        - k_panel[lo] * np.diff(w_table.read(at_coarse))
    )
    psi2_prefix = np.concatenate(([0.0], np.cumsum(psi2_panel)))
    out["mean_psi2"] = psi2_prefix[np.searchsorted(coarse, t_idx)]
    return out


def locate_one_search(table, s):
    """The ``Position`` of each point on ``table``'s edges from one search of
    the edges per point, in sorted order after one argsort when the points
    are unsorted: the reference for ``SmoothCumulative.locate``."""
    from lbrc.quadrature import Position

    s = np.asarray(s, dtype=float)
    sq = np.atleast_1d(s)
    slack = 1e-12 * max(abs(table.lo), abs(table.hi))
    if sq.size and (sq.min() < table.lo - slack or sq.max() > table.hi + slack):
        raise ValueError(
            f"query outside domain [{table.lo}, {table.hi}]: "
            f"[{sq.min()}, {sq.max()}]"
        )
    sq = np.clip(sq, table.lo, table.hi)
    if np.all(sq[1:] >= sq[:-1]):
        idx = np.searchsorted(table.edges, sq, side="right") - 1
    else:
        order = np.argsort(sq)
        idx = np.empty(sq.size, dtype=np.intp)
        idx[order] = np.searchsorted(table.edges, sq[order], side="right") - 1
    panel = np.minimum(idx, table.edges.size - 2)
    xi = (sq - table.edges[panel]) * table._inv_half[panel] - 1.0
    return Position(table.edges, idx, panel, xi, sq == table.edges[idx], s.ndim == 0)


def read_clenshaw_expression(table, position):
    """``table``'s cumulative at located points, each Clenshaw step written
    as one expression with fresh arrays: the reference for the in-place
    ``SmoothCumulative.read``."""
    if position.edges is not table.edges and not np.array_equal(position.edges, table.edges):
        raise ValueError("position was located on other edges")
    panel, xi = position.panel, position.xi
    coef = table._coef
    order = coef.shape[0] - 1
    b1 = coef[order][panel]
    b0 = coef[order - 1][panel] + (2 * order - 1) / order * xi * b1
    for k in range(order - 2, -1, -1):
        b2, b1 = b1, b0
        b0 = coef[k][panel] + (2 * k + 1) / (k + 1) * xi * b1 - (k + 1) / (k + 2) * b2
    out = table.cum[position.index] + np.where(position.on_edge, 0.0, b0)
    return float(out[0]) if position.scalar else out


def _influence_from_eight_terms(times, at_times, a, v, y, subject):
    """``_influence_from_reads`` on eight subject terms: ``m_a``, ``m_v``,
    ``1/k_a`` and ``delta/k_v`` apart, and psi2's terms as
    ``const + (1/k - m) V``."""
    long_grid = times.size > a.size
    t, g_t, v_t, q_t, m_t = (x if long_grid else x[:, None] for x in (times, *at_times))
    a, v, y, g_a, psi1_y, const_a, const_v, m_a, m_v, inv_k_a, inv_k_v = (
        x[:, None] if long_grid else x for x in (a, v, y, *subject)
    )
    a_le, v_le = a <= t, v <= t
    phi = np.where(a_le, m_a - inv_k_a, m_t) + np.where(v_le, m_v - inv_k_v, m_t)
    psi1 = np.where(y <= t, psi1_y, np.where(a_le, g_t - g_a, 0.0))
    psi2 = np.where(a_le, const_a + (inv_k_a - m_a) * v_t, g_t - q_t)
    psi2 += np.where(v_le, const_v + (inv_k_v - m_v) * v_t, -q_t)
    psi2 -= v_t
    return (phi.T, psi1.T, psi2.T) if long_grid else (phi, psi1, psi2)


def oracle_subject_influence_time_blocks(ctx, a, v, delta, times):
    """Oracle ``subject_influence`` over blocks of times for all subjects.

    Each read locates its column afresh with ``locate_one_search`` on the
    context's m, p, w and v tables and sums the series with
    ``read_clenshaw_expression``; blocks of
    ``_BLOCK_VALUES // n`` times (at least one) go through the formula on
    eight subject terms.  The reference, bit for bit, for the package's
    blocks of subjects on six terms, its one sort per subject column and its
    in-place reads.
    """
    from lbrc.errors import ComputeError
    from lbrc.influence import _BLOCK_VALUES, _check_oracle_sample

    a = np.asarray(a, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    delta = np.asarray(delta).reshape(-1).astype(float)
    times = np.asarray(times, dtype=float).reshape(-1)
    _check_oracle_sample(ctx, a, v, delta)
    y = a + v
    model = ctx.model
    m_t, p_t, w_t, _, v_tab = ctx.tables

    def read(tables, x):
        at = locate_one_search(tables[0], np.clip(x / ctx.unit, tables[0].lo, tables[0].hi))
        return [read_clenshaw_expression(table, at) for table in tables]

    k_a = np.asarray(model.pooled_at_risk(a), dtype=float)
    k_v = np.asarray(model.pooled_at_risk(v), dtype=float)
    r_y = np.asarray(model.risk(y), dtype=float)
    tmax = float(times.max()) if times.size else 0.0
    if np.any((a <= tmax) & (k_a <= 0)) or np.any(
        (v <= tmax) & (delta == 1) & (k_v <= 0)
    ):
        raise ComputeError("pooled at-risk function vanishes at an observed point")
    if np.any((y <= tmax) & (delta == 1) & (r_y <= 0)):
        raise ComputeError("risk function vanishes at an observed event time")
    inv_k_a = 1.0 / np.where(k_a > 0, k_a, 1.0)
    inv_k_v = np.where(delta == 1, 1.0 / np.where(k_v > 0, k_v, 1.0), 0.0)
    own_event = delta / np.where(r_y > 0, r_y, 1.0)

    m_a, p_a, w_a, v_a = read((m_t, p_t, w_t, v_tab), a)
    g_a = p_a + v_a
    const_a = g_a - w_a + (m_a - inv_k_a) * v_a
    p_y, v_y = read((p_t, v_tab), y)
    psi1_y = p_y + v_y - g_a - own_event
    m_v, w_v, v_v = read((m_t, w_t, v_tab), v)
    const_v = (m_v - inv_k_v) * v_v - w_v
    subject = (g_a, psi1_y, const_a, const_v, m_a, m_v, inv_k_a, inv_k_v)

    p_at, w_at, m_at, v_at = read((p_t, w_t, m_t, v_tab), times)
    at_times = (p_at + v_at, v_at, w_at, m_at)
    out = tuple(np.empty((times.size, a.size)) for _ in range(3))
    width = max(1, _BLOCK_VALUES // max(a.size, 1))
    for lo in range(0, times.size, width):
        rows = slice(lo, lo + width)
        block = _influence_from_eight_terms(
            times[rows], tuple(x[rows] for x in at_times), a, v, y, subject
        )
        for dst, src in zip(out, block):
            dst[rows] = src
    return out


# the models and points of ``TABLE_REFERENCE``: the points are these fractions
# of the window end b of each model's default grid
TABLE_MODELS = {
    "exponential": ExponentialModel(censor_rate=0.5, rate=1.0),
    "weibull-0.7": WeibullModel(censor_rate=0.5, shape=0.7),
    "weibull-1.5": WeibullModel(censor_rate=0.5, shape=1.5),
}
TABLE_FRACTIONS = (0.01, 0.3, 1.0)
# the points x of ``RIGHT_TABLE_REFERENCE``, as fractions of the same b
RIGHT_TABLE_FRACTIONS = (1e-9, 0.01, 0.3)


def mpmath_population(model):
    """The entry CDF of ``model``, the densities of its m and p tables and
    the ``rho S_A`` factor of its w table, as mpmath functions from the
    model's definition, at the working precision."""
    import mpmath as mp

    c = mp.mpf(model.censor_rate)
    if isinstance(model, WeibullModel):
        k, th = mp.mpf(model.shape), mp.mpf(model.scale)
        mu = th * mp.gamma(1 + 1 / k)

        def cumhaz(u):
            return (u / th) ** k

        def density(u):
            return (k / th) * (u / th) ** (k - 1) * mp.exp(-cumhaz(u))

        def s_a(u):
            return mp.gammainc(1 / k, cumhaz(u), mp.inf, regularized=True)

        def f_a(u):
            return mp.gammainc(1 / k, 0, cumhaz(u), regularized=True)

    else:
        rate = mp.mpf(model.rate)
        mu = 1 / rate

        def cumhaz(u):
            return rate * u

        def density(u):
            return rate * mp.exp(-rate * u)

        def s_a(u):
            return mp.exp(-rate * u)

        def f_a(u):
            return -mp.expm1(-rate * u)

    def rho(u):
        # the influence weight: event-subdistribution density over squared risk
        return mu * density(u) / (mp.exp(-2 * cumhaz(u)) * (-mp.expm1(-c * u) / c))

    def m_density(u):
        pooled = 1 + mp.exp(-c * u)
        return mp.exp(-cumhaz(u)) * pooled / mu / (s_a(u) * pooled) ** 2

    return f_a, m_density, lambda u: rho(u) * f_a(u), lambda u: rho(u) * s_a(u)


def mpmath_tables_at(model, t, which="mpw"):
    """The cumulatives from 0 to ``t`` of the m, p and w tables of
    ``model`` named in ``which``, by tanh-sinh quadrature in mpmath at its
    working precision; w integrates ``rho S_A m`` with m, at each of its
    nodes, by a nested quadrature.  The reference for
    ``OracleContext.tables``."""
    import mpmath as mp

    _, m_density, p_density, rho_s_a = mpmath_population(model)
    t = mp.mpf(t)

    def m(u):
        return mp.quad(m_density, [0, u])

    found = {
        "m": lambda: m(t),
        "p": lambda: mp.quad(p_density, [0, t]),
        "w": lambda: mp.quad(lambda u: rho_s_a(u) * m(u), [0, t]),
    }
    return tuple(found[name]() for name in which)


def mpmath_right_tables_at(model, x, b):
    """The integrals from ``x`` to ``b`` of ``rho`` and ``rho S_A`` of
    ``model``, by tanh-sinh quadrature in mpmath at its working precision,
    over 24 geometric pieces, since both behave like a power of u near 0;
    ``rho`` is the p density plus ``rho S_A``.  The reference for the g and
    v tables of ``OracleContext.tables``, which hold minus these."""
    import mpmath as mp

    _, _, p_density, rho_s_a = mpmath_population(model)
    x, b = mp.mpf(x), mp.mpf(b)
    pieces = [x * (b / x) ** (mp.mpf(k) / 24) for k in range(25)]
    return (
        mp.quad(lambda u: p_density(u) + rho_s_a(u), pieces),
        mp.quad(rho_s_a, pieces),
    )


def right_table_reference_literals(dps: int = 30) -> str:
    """The source of ``RIGHT_TABLE_REFERENCE``: the g and v integrals of
    ``mpmath_right_tables_at`` for each model in ``TABLE_MODELS``, from
    ``RIGHT_TABLE_FRACTIONS`` of its window end b to b, at ``dps`` digits,
    each as a 17-digit literal; run
    ``python -c "import oracles; print(oracles.right_table_reference_literals())"``
    from ``tests``."""
    import mpmath as mp

    lines = ["RIGHT_TABLE_REFERENCE = {"]
    with mp.workdps(dps):
        for name, model in TABLE_MODELS.items():
            b = model.default_grid().b
            lines.append(f"    {name!r}: {{")
            values = [mpmath_right_tables_at(model, frac * b, b) for frac in RIGHT_TABLE_FRACTIONS]
            for label, column in zip("gv", zip(*values)):
                literals = ", ".join(f"{float(x):.17g}" for x in column)
                lines.append(f"        {label!r}: ({literals}),")
            lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


def table_reference_literals(dps: int = 30) -> str:
    """The source of ``TABLE_REFERENCE``: m, p and w of each model in
    ``TABLE_MODELS`` at ``TABLE_FRACTIONS`` of its window end, from
    ``mpmath_tables_at`` at ``dps`` digits, each as a 17-digit literal.
    The w values take some minutes; run
    ``python -c "import oracles; print(oracles.table_reference_literals())"``
    from ``tests``."""
    import mpmath as mp

    lines = ["TABLE_REFERENCE = {"]
    with mp.workdps(dps):
        for name, model in TABLE_MODELS.items():
            b = model.default_grid().b
            lines.append(f"    {name!r}: {{")
            values = [mpmath_tables_at(model, frac * b) for frac in TABLE_FRACTIONS]
            for label, column in zip("mpw", zip(*values)):
                literals = ", ".join(f"{float(x):.17g}" for x in column)
                lines.append(f"        {label!r}: ({literals}),")
            lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


# ``table_reference_literals()`` at 30 digits
TABLE_REFERENCE = {
    'exponential': {
        'm': (0.011680145906110802, 0.54525109789915671, 6.1412751963540888),
        'p': (0.023225950400275593, 0.91016870210719414, 6.6622776601683809),
        'w': (0.011629778658562925, 0.47810786788009896, 4.0938908324214038),
    },
    'weibull-0.7': {
        'm': (0.012687354196403194, 0.46359114578646721, 3.1335529746569089),
        'p': (0.093748574750451993, 1.3854715655943266, 6.2375522524279798),
        'w': (0.046954109659475024, 0.73389834711239077, 3.902391767285335),
    },
    'weibull-1.5': {
        'm': (0.0098604395266354682, 0.54067479238596938, 12.410109095908814),
        'p': (0.0023102106398871602, 0.46115788514142908, 7.3925409343897419),
        'w': (0.0011566235960571156, 0.2411428477048537, 4.5152607119283852),
    },
}


# ``right_table_reference_literals()`` at 30 digits (half a minute)
RIGHT_TABLE_REFERENCE = {
    'exponential': {
        'g': (28.015820367979401, 11.86873678396212, 7.4086991565739764),
        'v': (21.353542710113604, 5.2296850741940153, 1.6565901985127898),
    },
    'weibull-0.7': {
        'g': (1042.8556204983479, 15.060187260947203, 7.1490599799537886),
        'v': (1036.6180693999463, 8.9163835832696741, 2.2969792931201356),
    },
    'weibull-1.5': {
        'g': (10.464969384985956, 10.106733083727676, 8.1924622938776022),
        'v': (3.0724284505962869, 2.7165023599778197, 1.2610792446292896),
    },
}


# the levels of ``GAMMA2_REFERENCE``: small levels from the least subnormal
# up to sampling's lattice k 2^-53; the lattice k/32 and its ends 2^-53 and
# 1 - 2^-53; each side of the quantile's branch points, L = 2^-40, x = 1 and
# L = 1; decades near both ends; and 0.95, whose quantile brackets the
# observed-time 95th percentile in ``observed_time_quantile``
GAMMA2_LEVELS = (
    5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 2.0**-53, 2 * 2.0**-53, 3 * 2.0**-53, 1e-16,
    9.094947017725145e-13, 9.094947017725146e-13, 1e-12, 1e-9, 1e-6, 1e-3, 0.01,
    *(k / 32 for k in range(1, 32)),
    0.26424111765711533, 0.2642411176571154, 0.6321205588285576, 0.6321205588285577,
    0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
    1 - 2**20 * 2.0**-53, 1 - 3 * 2.0**-53, 1 - 2 * 2.0**-53, 1 - 2.0**-53,
)


def mpmath_gamma2_quantile(p):
    """The Gamma(2) quantile at the float ``p``: the root x of
    x - log1p(x) = -log1p(-p), in mpmath at its working precision.  The
    residual cancels about as many digits as x ~ sqrt(2p) is below 1, so the
    root is found with that many more."""
    import math

    import mpmath as mp

    with mp.extradps(10 + max(0, round(-math.log10(p) / 2))):
        level = -mp.log1p(-mp.mpf(p))
        z = mp.sqrt(2 * level)
        start = z * (1 + z / 3) if level < 1 else level + mp.log1p(level + mp.log1p(level))
        root = mp.findroot(lambda x: x - mp.log1p(x) - level, start)
    return +root


def gamma2_reference_literals(dps: int = 40) -> str:
    """The source of ``GAMMA2_REFERENCE``: ``mpmath_gamma2_quantile`` at
    each of ``GAMMA2_LEVELS``, as a ``dps``-digit string; run
    ``python -c "import oracles; print(oracles.gamma2_reference_literals())"``
    from ``tests`` (about a second)."""
    import mpmath as mp

    lines = ["GAMMA2_REFERENCE = {"]
    with mp.workdps(dps):
        for p in GAMMA2_LEVELS:
            digits = mp.nstr(mpmath_gamma2_quantile(p), dps, min_fixed=0, max_fixed=0)
            lines.append(f"    {p!r}: {digits!r},")
    lines.append("}")
    return "\n".join(lines)


# ``gamma2_reference_literals()`` at 40 digits
GAMMA2_REFERENCE = {
    5e-324: '3.14345556940525737781903134561016445657e-162',
    1e-300: '1.414213562373095066521142491262258037508e-150',
    1e-200: '1.414213562373095036144662885141293775617e-100',
    1e-100: '1.414213562373095062938096643432197881768e-50',
    1e-30: '1.414213562373095774396103522315244434937e-15',
    1.1102230246251565e-16: '1.4901161267862525063843036514469579992e-8',
    2.220446049250313e-16: '2.107342440347675393993986609738408584603e-8',
    3.3306690738754696e-16: '2.580956850156245624492592435951564616004e-8',
    1e-16: '1.414213569039761743900339893315421161042e-8',
    9.094947017725145e-13: '1.348699758678478270629075856701638031775e-6',
    9.094947017725146e-13: '1.348699758678478345496985784404534655428e-6',
    1e-12: '1.41421422904019382237529801085172839087e-6',
    1e-09: '4.472202623032764037652864214335013127988e-5',
    1e-06: '1.41488066147934287823457807387098553499e-3',
    0.001: '4.540201776948955730051284021861580557174e-2',
    0.01: '1.485547402532659493077195596070503517264e-1',
    0.03125: '2.73582470906226129964793412139541458597e-1',
    0.0625: '4.03526566596621196095419657652521261857e-1',
    0.09375: '5.11625897997221094968289564121640172702e-1',
    0.125: '6.093810677230784440044163751808079992689e-1',
    0.15625: '7.012798683090540122213976238505883403271e-1',
    0.1875: '7.896713826848267461324233722346562753802e-1',
    0.21875: '8.76004130012148486607589402847610257427e-1',
    0.25: '9.612787631147770958482677494944362329955e-1',
    0.28125: '1.04625104942780153539069196322121098914',
    0.3125: '1.131536557659712708128970349235804651209',
    0.34375: '1.217671020346431154932999828135165097456',
    0.375: '1.305148904073595108391071663199394058831',
    0.40625: '1.394450829424097947527722557085786970835',
    0.4375: '1.486065475226177341952848329048455450766',
    0.46875: '1.580509367424912001376434993396331498142',
    0.5: '1.678346990016660653412884512094523084824',
    0.53125: '1.780213382889515131740047614256372516353',
    0.5625: '1.886841608746107910493975024278034968414',
    0.59375: '1.999098183223072675065375166253739851168',
    0.625: '2.118030949753876636921161884047711756873',
    0.65625: '2.244936371931837171012454152409542676588',
    0.6875: '2.381457697896879614459885231597544096589',
    0.71875: '2.529733776001291672075416980675592787385',
    0.75: '2.69263452888969577075376537782014664319',
    0.78125: '2.874152746606044091688805653983434056162',
    0.8125: '3.080097259919075919539677113033771480725',
    0.84375: '3.319418860552314509457308447277421611981',
    0.875: '3.607023536470181955236982546098843876275',
    0.90625: '3.97068033274890745377248396539762683647',
    0.9375: '4.472284981079574096128417647199794637492',
    0.96875: '5.307470651344488180204728797255010990194',
    0.26424111765711533: '9.999999999999999324302894817315483127138e-1',
    0.2642411176571154: '1.000000000000000083325243150501654569232',
    0.6321205588285576: '2.146193220620582093304166567260587584914',
    0.6321205588285577: '2.146193220620582535710447322603323343402',
    0.95: '4.743864518390577300445086487916345084403',
    0.99: '6.638352067993811247397803923438768656946',
    0.999: '9.233413476451584746061143145483546973722',
    0.999999: '1.668842079082944091544010906499045342027e+1',
    0.999999999: '2.39397278950372859544415260080778318565e+1',
    0.999999999999: '3.109989602905379656518672747754424176093e+1',
    0.9999999998835847: '2.61761984933023851229778383777949921002e+1',
    0.9999999999999997: '3.933541822821017467499624837878374253483e+1',
    0.9999999999999998: '3.975113713353203788370916813772860409259e+1',
    0.9999999999999999: '4.04615674830874653583793028132607207367e+1',
}
