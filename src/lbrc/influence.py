"""Per-subject influence values, representation residuals, and variance.

The fitted cumulative hazard and CDF admit i.i.d. representations: estimator
minus truth equals a sample mean of per-subject influence values plus a
higher-order remainder.  This module evaluates the influence functions in two
modes:

* oracle mode computes against a known population (a truth model or raw
  population callables).  Its integrals are cumulative tables of the
  population densities, built once by panel Gauss-Legendre; per-subject
  values are table lookups, and the sample means of ``influence_means`` are
  exact sums of table differences over the panels between data points;
* plugin mode substitutes the fitted curves for population quantities, so
  every integral is an exact finite sum over data points.  This is the basis
  of the pointwise variance estimate and normal-approximation intervals.

Plugin values are the exact derivatives of the reported step-function
estimates, not the continuous-hazard formulas evaluated at them.  The pooled
entry survival is a Kaplan-Meier product, so each pooled increment carries the
factor ``1 / (1 - dq/kq)`` of its product factor (pooled jump count ``dq``,
pooled at-risk count ``kq``).  The CDF is a product over the hazard jumps, so
in ``plugin_variance`` each event's hazard-increment terms carry the
product-limit weight ``1 / (1 - dL(u))``.  For a continuous hazard both
weights are 1; at the fitted hazard the early events, with small risk sets and
large jumps, carry most of the variance, and dropping the weights understates
it.

The influence values have a borderline-heavy tail.  The risk function vanishes
at the time origin under entry-delay sampling, so the event term
``delta / r(y)`` is large for early events.  When the lifetime density is
positive at 0, ``E[(delta / r(y))^2 1{y <= t}]`` diverges like ``log n``, the
tail index of the influence values is close to 2, and the plugin standard
error of the CDF falls short of its sampling spread even at large n.

Numerical layout of the oracle integrals: the risk function vanishes at 0
under entry-delay sampling, so integrands like (event density)/(risk)^2 are
not integrable from 0.  Each influence value combines such pieces into a
finite total; the code therefore never anchors a divergent cumulative at 0,
but instead tabulates

* cumulatives that are finite from 0 (those whose integrand stays bounded),
* cumulatives of the divergent integrands anchored just below the smallest
  positive data point, used only through differences whose lower endpoint
  is a data point, or on panels whose coefficient vanishes below the
  anchor.

All per-subject evaluation is vectorized over subjects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .data import Dataset, LbrcObservation
from .empirical import build_empirical
from .errors import ComputeError, WindowError
from .estimators import (
    FittedCurves,
    estimate_combined_risk,
    estimate_entry_survival,
    fit,
    huang_qin_cdf,
)
from .quadrature import SmoothCumulative, geometric_edges, origin_graded_edges
from .stepfun import EvalGrid
from .truth import TruthModel

__all__ = [
    "DIVERGENCE_CAP",
    "InfluenceContext",
    "make_oracle_context",
    "make_plugin_context",
    "subject_influence",
    "pooled_entry_influence",
    "hazard_influence_direct",
    "hazard_influence_riskpart",
    "influence_means",
    "RepresentationReport",
    "residual_hazard",
    "residual_cdf",
    "residual_entry_survival",
    "LilCurves",
    "lil_quantities",
    "plugin_variance",
    "assumption3_diagnostic",
]

DIVERGENCE_CAP = 1.0e4

_TABLE_PANELS = 1600


class InfluenceContext:
    """Population (oracle) or data-derived (plugin) evaluation context.

    Oracle contexts carry callables for the risk function, entry survival and
    pooled at-risk function, plus the densities of the pooled cumulative and
    the event subdistribution.  Plugin contexts carry the fitted counterparts
    and exact jump tables.  The evaluation window is the grid's [lower, b] span.
    """

    def __init__(self, mode: str, grid: EvalGrid):
        self.mode = mode
        self.grid = grid
        self.lower = grid.lower
        self.upper = grid.b
        self.r_fn = None
        self.s_a_fn = None
        self.k_fn = None
        self.cdf_fn = None
        self.model: TruthModel | None = None
        self._cache: dict = {}


def make_oracle_context(model: TruthModel, grid: EvalGrid) -> InfluenceContext:
    ctx = InfluenceContext("oracle", grid)
    ctx.model = model
    ctx.r_fn = model.risk
    ctx.s_a_fn = model.entry_survival
    ctx.k_fn = model.pooled_at_risk
    ctx.cdf_fn = model.cdf
    ctx.fu_density = model.event_subdist_density
    ctx.q_density = model.pooled_density
    ctx.entry_cdf_fn = model.entry_cdf
    ctx.rho = model.influence_weight
    return ctx


def make_plugin_context(d: Dataset, grid: EvalGrid) -> InfluenceContext:
    """Context with every population quantity replaced by its fitted curve."""
    ctx = InfluenceContext("plugin", grid)
    emp = build_empirical(d)
    entry_surv = estimate_entry_survival(emp)
    risk = estimate_combined_risk(d, entry_surv)
    n = d.n

    ctx.dataset = d
    ctx.emp = emp
    ctx.entry_surv = entry_surv
    ctx.risk = risk
    ctx.cdf = huang_qin_cdf(emp, risk)
    ctx.r_fn = risk.at
    ctx.s_a_fn = entry_surv.at
    ctx.k_fn = emp.pooled_at_risk.at
    ctx.cdf_fn = ctx.cdf.at

    # exact jump tables over distinct event times
    u = emp.event_times
    dn = emp.event_counts / n
    r_floor = np.maximum(risk.at(u), 1.0 / n) if u.size else np.empty(0)
    ctx.event_times = u
    ctx.event_dn = dn
    ctx.event_risk = r_floor
    ctx.event_w = dn / r_floor**2 if u.size else np.empty(0)
    ctx.event_entry_surv = entry_surv.at(u) if u.size else np.empty(0)

    # pooled-sample prefix of (pooled jump)/(pooled at-risk)^2, each term
    # weighted by 1/(1 - dq/kq), the derivative factor of its Kaplan-Meier
    # factor.  Every stored pooled time is a mass point, so kq >= dq >= 1.  A
    # zero factor (dq = kq, only at the last pooled time) stays 0 under every
    # perturbation of the sample, so its weight is 0.
    kq = emp.pooled_at_risk_counts.astype(float)
    dq = emp.pooled_jumps.astype(float)
    open_factor = dq < kq
    ctx.pooled_times = emp.pooled_times
    ctx.pooled_gain = np.where(open_factor, kq / np.where(open_factor, kq - dq, 1.0), 0.0)
    ctx.pooled_m_prefix = np.concatenate(([0.0], np.cumsum(n * dq / kq**2 * ctx.pooled_gain)))

    ctx.event_m = _plugin_m(ctx, u) if u.size else np.empty(0)
    ctx.pref_w, ctx.pref_ws, ctx.pref_wsm = _event_prefixes(ctx, ctx.event_w)
    return ctx


def _plugin_m(ctx, x):
    """Plugin pooled-hazard second-moment prefix evaluated at x."""
    idx = np.searchsorted(ctx.pooled_times, np.asarray(x, dtype=float), side="right")
    return ctx.pooled_m_prefix[idx]


def _event_prefixes(ctx, w):
    """Prefix sums over events of w, w * S_A and w * S_A * m."""
    ws = w * ctx.event_entry_surv
    return (
        np.concatenate(([0.0], np.cumsum(w))),
        np.concatenate(([0.0], np.cumsum(ws))),
        np.concatenate(([0.0], np.cumsum(ws * ctx.event_m))),
    )


def _at_mass(times, values, x, idx_right):
    """``values`` at the mass point equal to each x, 1 where x is none.

    ``idx_right`` is ``searchsorted(times, x, side="right")``.
    """
    if times.size == 0:
        return np.ones(x.shape)
    j = np.maximum(idx_right - 1, 0)
    return np.where((idx_right > 0) & (times[j] == x), values[j], 1.0)


# ---------------------------------------------------------------------------
# oracle tables


def _oracle_tables(ctx) -> dict:
    if "tables" not in ctx._cache:
        hi = ctx.upper

        def kappa(u):
            return np.asarray(ctx.q_density(u), dtype=float) / np.asarray(
                ctx.k_fn(u), dtype=float
            ) ** 2

        edges = origin_graded_edges(hi, _TABLE_PANELS)
        m_table = SmoothCumulative(kappa, edges)
        p_table = SmoothCumulative(
            lambda u: np.asarray(ctx.rho(u), dtype=float)
            * np.asarray(ctx.entry_cdf_fn(u), dtype=float),
            edges,
        )
        w_table = SmoothCumulative(
            lambda u: np.asarray(ctx.rho(u), dtype=float)
            * np.asarray(ctx.s_a_fn(u), dtype=float)
            * m_table.query(u),
            edges,
        )
        ctx._cache["tables"] = {"kappa": kappa, "m": m_table, "p": p_table, "w": w_table}
    return ctx._cache["tables"]


def _anchor(ctx, a, v) -> float:
    """Lower edge of the anchored tables: just below the smallest positive a or v.

    No positive data point lies below it, so every difference of an anchored
    cumulative that the influence values take has both ends at or above it.
    """
    positive = np.concatenate([a, v[v > 0]])
    return min(0.999 * positive.min(initial=np.inf), 0.5 * ctx.upper)


def _anchored_table(ctx, anchor: float, density) -> SmoothCumulative:
    """Cumulative of a density that diverges at 0, from ``anchor`` to the window end."""
    return SmoothCumulative(density, geometric_edges(anchor, ctx.upper, ratio=1.12))


def _check_oracle_sample(a, v, delta):
    """Refuse samples whose oracle influence values diverge."""
    if np.any(a <= 0):
        raise ComputeError("oracle influence needs positive entry delays")
    if np.any((v == 0) & (delta == 1)):
        raise ComputeError(
            "residual time 0 with an observed event makes the risk correction diverge"
        )


def _masked_query(table: SmoothCumulative, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Query only where mask holds; other entries return 0 without evaluation."""
    safe = np.where(mask, np.clip(x, table.lo, table.hi), table.lo)
    vals = table.query(safe)
    return np.where(mask, vals, 0.0)


# ---------------------------------------------------------------------------
# per-subject evaluation


def subject_influence(ctx: InfluenceContext, a, v, delta, times, *, event_gain=None):
    """Influence values for each subject at each time.

    Returns three arrays of shape ``(len(times), n)``: the pooled-entry
    influence, the direct hazard influence, and the estimated-risk hazard
    correction.

    In plugin mode ``event_gain`` (one value per distinct event time)
    multiplies every term of each event's hazard increment; left at None the
    hazard influence is returned.  ``plugin_variance`` passes the
    product-limit weights through it.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    delta = np.asarray(delta).reshape(-1).astype(float)
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size and times.max() > ctx.upper + 1e-12:
        raise ValueError("evaluation time beyond the context window")
    if ctx.mode == "oracle":
        if event_gain is not None:
            raise ValueError("event_gain applies to plugin contexts only")
        return _oracle_subject_influence(ctx, a, v, delta, times)
    return _plugin_subject_influence(ctx, a, v, delta, times, event_gain)


def _oracle_subject_influence(ctx, a, v, delta, times):
    _check_oracle_sample(a, v, delta)
    y = a + v
    hi = ctx.upper
    tables = _oracle_tables(ctx)
    m_t, p_t, w_t = tables["m"], tables["p"], tables["w"]

    pos_v = v > 0
    anchor = _anchor(ctx, a, v)
    g_t = _anchored_table(ctx, anchor, ctx.rho)
    v_tab = _anchored_table(
        ctx,
        anchor,
        lambda u: np.asarray(ctx.rho(u), dtype=float) * np.asarray(ctx.s_a_fn(u), dtype=float),
    )

    a_in = a <= hi
    v_in = pos_v & (v <= hi)
    y_in = y <= hi

    m_a = _masked_query(m_t, a, a_in)
    m_v = _masked_query(m_t, v, v <= hi)  # m(0) = 0, so zero residuals are fine
    w_a = _masked_query(w_t, a, a_in)
    w_v = _masked_query(w_t, v, v <= hi)
    g_a = _masked_query(g_t, a, a_in)
    g_y = _masked_query(g_t, y, y_in)
    v_a = _masked_query(v_tab, a, a_in)
    v_v = _masked_query(v_tab, v, v_in)

    k_a = np.asarray(ctx.k_fn(a), dtype=float)
    k_v = np.asarray(ctx.k_fn(v), dtype=float)
    r_y = np.asarray(ctx.r_fn(y), dtype=float)
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
        m_at_t = m_t.query(t)
        p_at_t = p_t.query(t)
        w_at_t = w_t.query(t)
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


def _plugin_subject_influence(ctx, a, v, delta, times, event_gain=None):
    phi = np.zeros((times.size, a.size))
    psi1 = np.zeros_like(phi)
    psi2 = np.zeros_like(phi)

    u = ctx.event_times
    y = a + v
    s = ctx.pooled_times
    idx_pa = np.searchsorted(s, a, side="right")
    idx_pv = np.searchsorted(s, v, side="right")
    m_a = ctx.pooled_m_prefix[idx_pa]
    m_v = ctx.pooled_m_prefix[idx_pv]
    k_a = np.asarray(ctx.k_fn(a), dtype=float)
    k_v = np.asarray(ctx.k_fn(v), dtype=float)
    # the pooled jump at a point carries the Kaplan-Meier factor of its mass
    gain_a = _at_mass(s, ctx.pooled_gain, a, idx_pa)
    gain_v = _at_mass(s, ctx.pooled_gain, v, idx_pv)
    inv_k_a = np.where(k_a > 0, gain_a / np.where(k_a > 0, k_a, 1.0), 0.0)
    inv_k_v = np.where(k_v > 0, gain_v / np.where(k_v > 0, k_v, 1.0), 0.0)
    r_y = np.maximum(np.asarray(ctx.r_fn(y), dtype=float), 1.0 / ctx.dataset.n)

    idx_a_left = np.searchsorted(u, a, side="left")
    idx_a_right = np.searchsorted(u, a, side="right")
    idx_v_left = np.searchsorted(u, v, side="left")
    idx_v_right = np.searchsorted(u, v, side="right")
    idx_y_right = np.searchsorted(u, y, side="right")

    own_event = delta / r_y
    if event_gain is None:
        pref_w, pref_ws, pref_wsm = ctx.pref_w, ctx.pref_ws, ctx.pref_wsm
    else:
        pref_w, pref_ws, pref_wsm = _event_prefixes(ctx, ctx.event_w * event_gain)
        own_event = own_event * _at_mass(u, event_gain, y, idx_y_right)

    for j, t in enumerate(times):
        kt = int(np.searchsorted(u, t, side="right"))
        a_le = a <= t
        v_le = v <= t
        y_le = y <= t

        jump_a = np.where(a_le, inv_k_a, 0.0)
        jump_v = np.where(v_le & (delta == 1), inv_k_v, 0.0)
        m_at_t = float(_plugin_m(ctx, t))
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
        t6 = delta * inv_k_v * (pref_ws[kt] - pref_ws[jv_t])
        psi2[j] = t1 + t2 - (t3 + t4) + t5 + t6
    return phi, psi1, psi2


def pooled_entry_influence(obs: LbrcObservation, t: float, ctx: InfluenceContext) -> float:
    """Influence of one subject on the pooled entry-survival estimate."""
    phi, _, _ = subject_influence(ctx, [obs.a], [obs.v], [obs.delta], [t])
    return float(phi[0, 0])


def hazard_influence_direct(obs: LbrcObservation, t: float, ctx: InfluenceContext) -> float:
    """Direct hazard-estimation influence of one subject."""
    _, psi1, _ = subject_influence(ctx, [obs.a], [obs.v], [obs.delta], [t])
    return float(psi1[0, 0])


def hazard_influence_riskpart(obs: LbrcObservation, t: float, ctx: InfluenceContext) -> float:
    """Hazard influence correction from the estimated risk function."""
    _, _, psi2 = subject_influence(ctx, [obs.a], [obs.v], [obs.delta], [t])
    return float(psi2[0, 0])


# ---------------------------------------------------------------------------
# exact aggregated sample means (oracle mode)


def influence_means(
    ctx: InfluenceContext, d: Dataset, times, want: str = "both"
) -> dict[str, np.ndarray]:
    """Sample means of the influence functions at each time, in oracle mode.

    The per-subject sums are Stieltjes integrals of sample step functions
    against population measures.  The breaks are 0, the times and the data
    points up to the largest time.  Every step function is constant between
    two breaks, so each integral is a sum over the panels of a constant times
    the difference of an oracle cumulative table across the panel:

    * entry influence: ``k dm`` with ``k`` the pooled at-risk fraction, minus
      the exact sum of the pooled-sample jumps;
    * direct hazard influence: ``r_bar dg`` with ``r_bar`` the at-risk
      fraction and ``g`` the integral of the influence weight ``rho``, minus
      the exact sum over events;
    * risk correction: inside a panel the entry-influence mean is
      ``phi_b + k (m(u) - m_b)``, so the panel integral of
      ``rho (a_bar - S_A (1 + phi))``, with ``a_bar`` the fraction of entry
      delays above ``u``, is ``(a_bar - c) dg + c dp - k dw`` with
      ``c = 1 + phi_b - k m_b``, ``p`` the integral of ``rho (1 - S_A)`` and
      ``w`` that of ``rho S_A m``.  Its coefficients change only at 0, the
      times, ``a`` and ``v``, so it is summed over the coarser panels between
      those breaks.

    ``g`` diverges at 0 and is tabulated from just below the smallest
    positive ``a`` or ``v``.  Left of that ``r_bar = 0`` and ``a_bar = c = 1``,
    so those panels carry no ``dg`` term.  The cost is a few table lookups
    per data point; once the context's tables exist, densities are evaluated
    only to build the anchored ``g`` table.  Agreement with the direct
    per-subject sums is part of the test suite.

    ``want`` selects components: "phi", "psi", or "both".
    """
    if ctx.mode != "oracle":
        raise ValueError("influence_means requires an oracle context")
    _check_oracle_sample(d.a, d.v, d.delta)
    times = np.asarray(times, dtype=float).reshape(-1)
    tmax = float(times.max())
    n = d.n
    tables = _oracle_tables(ctx)

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
    out: dict[str, np.ndarray] = {}

    # entry influence mean: smooth part against the pooled measure minus the
    # exact pooled-sample jump sum
    in_range = emp.pooled_times <= tmax
    s_pool = emp.pooled_times[in_range]
    dq_pool = emp.pooled_jumps[in_range] / n
    k_pop_pool = np.asarray(ctx.k_fn(s_pool), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump_terms = np.where(k_pop_pool > 0, dq_pool / np.where(k_pop_pool > 0, k_pop_pool, 1.0), 0.0)
    jump_prefix = np.concatenate(([0.0], np.cumsum(jump_terms)))

    m_at_breaks = tables["m"].query(breaks)
    phi_smooth_prefix = np.concatenate(([0.0], np.cumsum(k_panel * np.diff(m_at_breaks))))
    phi_at_breaks = phi_smooth_prefix - jump_prefix[
        np.searchsorted(s_pool, breaks, side="right")
    ]
    if want in ("phi", "both"):
        out["mean_phi"] = phi_at_breaks[t_idx]
    if want == "phi":
        return out

    # g is tabulated from the anchor on; the panels left of it carry no dg
    anchor = _anchor(ctx, d.a, d.v)
    g_at_breaks = _anchored_table(ctx, anchor, ctx.rho).query(np.maximum(breaks, anchor))
    dg = np.where(left >= anchor, np.diff(g_at_breaks), 0.0)

    # direct hazard influence mean
    ev_in = emp.event_times <= tmax
    u_ev = emp.event_times[ev_in]
    dn_ev = emp.event_counts[ev_in] / n
    r_pop_ev = np.asarray(ctx.r_fn(u_ev), dtype=float)
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
    psi2_panel = (
        (bar_a[lo] - c) * np.add.reduceat(dg, lo)
        + c * np.diff(tables["p"].query(breaks[coarse]))
        - k_panel[lo] * np.diff(tables["w"].query(breaks[coarse]))
    )
    psi2_prefix = np.concatenate(([0.0], np.cumsum(psi2_panel)))
    out["mean_psi2"] = psi2_prefix[np.searchsorted(coarse, t_idx)]
    return out


# ---------------------------------------------------------------------------
# representation residuals


@dataclass(frozen=True)
class RepresentationReport:
    """Sup-norm summary of one i.i.d.-representation remainder."""

    which: str
    grid: EvalGrid
    influence_mean: np.ndarray
    residual: np.ndarray
    residual_sup: float
    convention: str | None = None
    alt_residual_sup: float | None = None


def _require_model(ctx: InfluenceContext):
    if ctx.mode != "oracle" or ctx.model is None:
        raise ValueError("representation residuals need a model-backed oracle context")


def residual_hazard(
    d: Dataset, ctx: InfluenceContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the hazard representation over the grid."""
    _require_model(ctx)
    curves = curves if curves is not None else fit(d)
    means = influence_means(ctx, d, grid.points, want="both")
    mean_psi = means["mean_psi1"] + means["mean_psi2"]
    gap = curves.combined_cumhaz.at(grid.points) - np.asarray(
        ctx.model.cumhaz(grid.points), dtype=float
    )
    residual = gap + mean_psi
    return RepresentationReport(
        "Rn1", grid, mean_psi, residual, float(np.abs(residual).max())
    )


def residual_cdf(
    d: Dataset, ctx: InfluenceContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the CDF representation, under both sign conventions.

    The stated representation carries a plus sign on the influence average,
    while the delta-method expansion of the product-limit map suggests a
    minus sign; both are computed and the smaller-remainder convention is
    reported, with the other kept alongside.
    """
    _require_model(ctx)
    curves = curves if curves is not None else fit(d)
    means = influence_means(ctx, d, grid.points, want="both")
    mean_psi = means["mean_psi1"] + means["mean_psi2"]
    f_true = np.asarray(ctx.model.cdf(grid.points), dtype=float)
    gap = curves.cdf.at(grid.points) - f_true
    res_minus = gap + (1.0 - f_true) * mean_psi
    res_plus = gap - (1.0 - f_true) * mean_psi
    sup_minus = float(np.abs(res_minus).max())
    sup_plus = float(np.abs(res_plus).max())
    if sup_minus <= sup_plus:
        return RepresentationReport(
            "Rn2", grid, mean_psi, res_minus, sup_minus, "minus", sup_plus
        )
    return RepresentationReport("Rn2", grid, mean_psi, res_plus, sup_plus, "plus", sup_minus)


def residual_entry_survival(
    d: Dataset, ctx: InfluenceContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the pooled entry-survival representation."""
    _require_model(ctx)
    curves = curves if curves is not None else fit(d)
    mean_phi = influence_means(ctx, d, grid.points, want="phi")["mean_phi"]
    s_a_true = np.asarray(ctx.model.entry_survival(grid.points), dtype=float)
    gap = curves.entry_survival.at(grid.points) - s_a_true
    residual = gap - s_a_true * mean_phi
    return RepresentationReport(
        "Rn3", grid, mean_phi, residual, float(np.abs(residual).max())
    )


# ---------------------------------------------------------------------------
# variance, iterated-logarithm curves, window diagnostic


@dataclass(frozen=True)
class LilCurves:
    """Pointwise fluctuation-scale curves for the CDF estimate.

    ``v`` follows the stated convention ``v^2 = (1 - F) d``; ``v_alt``
    carries the delta-method convention ``v = (1 - F) sqrt(d)``.  Both are
    reported because the first power is unusual for a variance-style
    quantity.
    """

    d: np.ndarray
    v: np.ndarray
    v_alt: np.ndarray


def lil_quantities(ctx: InfluenceContext, grid: EvalGrid) -> LilCurves:
    """Fluctuation curves, integrated from the window's lower edge."""
    pts = grid.points
    if ctx.mode == "oracle":
        if grid.lower < grid.b:
            table = SmoothCumulative(
                lambda u: np.asarray(ctx.rho(u), dtype=float),
                geometric_edges(grid.lower, grid.b, ratio=1.05),
            )
            d_vals = table.query(pts)
        else:
            d_vals = np.zeros(pts.size)
        if ctx.cdf_fn is not None:
            f_vals = np.asarray(ctx.cdf_fn(pts), dtype=float)
        else:
            f_vals = np.full(pts.size, np.nan)
    else:
        u = ctx.event_times
        pref = np.concatenate(([0.0], np.cumsum(ctx.event_w)))
        hi_idx = np.searchsorted(u, pts, side="right")
        lo_idx = np.searchsorted(u, grid.lower, side="right")
        d_vals = pref[hi_idx] - pref[lo_idx]
        f_vals = ctx.cdf.at(pts)
    surv = np.clip(1.0 - f_vals, 0.0, 1.0)
    return LilCurves(d=d_vals, v=np.sqrt(surv * d_vals), v_alt=surv * np.sqrt(d_vals))


def plugin_variance(ctx: InfluenceContext) -> np.ndarray:
    """Pointwise variance of the fitted CDF via plugin influence values.

    The summand of each subject is the exact derivative of the reported
    product-limit estimate ``F(t) = 1 - prod_{u <= t} (1 - dL(u))``.  Its
    derivative in the jump ``dL(u)`` is ``(1 - F(t)) / (1 - dL(u))``, so every
    event's hazard-increment terms carry the weight ``1 / (1 - dL(u))``; the
    entry-survival influence inside the hazard influence carries the
    Kaplan-Meier factor in the same way (see ``make_plugin_context``).  With
    a continuous hazard both weights would be 1 and the summand would be
    ``(1 - F) * psi``.  A clamped factor (``dL(u) >= 1``) gets weight 0: it
    makes ``F`` identically 1 from ``u`` on, where the variance is 0.

    ``ctx`` is a plugin context; its dataset and grid fix the sample and the
    evaluation points.
    """
    if ctx.mode != "plugin":
        raise ValueError("plugin_variance requires a plugin context")
    d, grid = ctx.dataset, ctx.grid
    factor = 1.0 - ctx.event_dn / ctx.event_risk
    open_factor = factor > 0
    gain = np.where(open_factor, 1.0 / np.where(open_factor, factor, 1.0), 0.0)
    _, psi1, psi2 = subject_influence(
        ctx, d.a, d.v, d.delta, grid.points, event_gain=gain
    )
    psi = psi1 + psi2
    scale = 1.0 - ctx.cdf.at(grid.points)
    summand = scale[:, None] * psi
    return summand.var(axis=1) / d.n


def assumption3_diagnostic(
    ctx: InfluenceContext, b: float, cap: float = DIVERGENCE_CAP
) -> float:
    """Window admissibility integral: event measure over cubed risk.

    Returns the integral over (window lower edge, b]; raises ``WindowError``
    when it exceeds ``cap``, which marks the window as too wide for stable
    rate measurement.
    """
    b = float(b)
    if b <= ctx.lower:
        raise ValueError("b must exceed the window's lower edge")
    if ctx.mode == "oracle":
        val, _ = integrate.quad(
            lambda u: float(
                np.asarray(ctx.fu_density(u), dtype=float)
                / np.asarray(ctx.r_fn(u), dtype=float) ** 3
            ),
            ctx.lower,
            b,
            limit=200,
        )
    else:
        u = ctx.event_times
        mask = (u > ctx.lower) & (u <= b)
        val = float(np.sum(ctx.event_dn[mask] / ctx.event_risk[mask] ** 3))
    val = float(val)
    if not np.isfinite(val) or val > cap:
        raise WindowError(
            f"window diagnostic {val:.6g} exceeds cap {cap:.6g}; "
            f"shrink b below the heavy tail"
        )
    return val
