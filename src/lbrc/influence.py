"""Per-subject influence values, representation residuals, and variance.

The fitted cumulative hazard and CDF admit i.i.d. representations: estimator
minus truth equals a sample mean of per-subject influence values plus a
higher-order remainder.  This module evaluates the influence functions in two
modes, each with its own frozen context type:

* ``OracleContext`` computes against a known population (a truth model, or
  any object with the same population functions).  Its integrals are
  cumulative tables of the population densities in a power-of-two unit of
  the window end, built once by panel Gauss-Legendre; per-subject values are
  table lookups, and the sample means of ``influence_means`` are exact sums
  of table differences over the panels between entry and residual times;
* ``PluginContext`` substitutes the fitted curves of one sample
  (``FittedCurves``) for population quantities, so every integral is an exact
  finite sum over data points.  This is the basis of the pointwise variance
  estimate and normal-approximation intervals.

``subject_influence`` takes either context.  ``influence_means``, the
representation residuals and ``assumption3_diagnostic`` take an oracle
context; ``plugin_variance`` and ``lil_quantities`` take a plugin context.

Both modes of ``subject_influence`` evaluate one formula,
``_influence_from_reads``, on four cumulatives read at each time (of ``rho``,
``rho S_A``, ``rho S_A m`` and ``m``) and six terms per subject: the plugin
mode reads event prefix sums, the oracle mode the context's tables.  The
oracle mode sorts each of the a, v and y columns once, reads the sorted
column with one location on the tables' shared edges and puts the reads
back in subject order, then evaluates the formula over every time for one
block of subjects at a time, the layout of ``plugin_variance``'s chunks.

Plugin values are the exact derivatives of the reported step-function
estimates, not the continuous-hazard formulas evaluated at them.  The pooled
entry survival is a Kaplan-Meier product, so each pooled increment carries the
factor ``1 / (1 - dq/kq)`` of its product factor (pooled jump count ``dq``,
pooled at-risk count ``kq``).  The CDF is a product over the hazard jumps, so
in plugin ``subject_influence`` each event's hazard-increment terms carry the
product-limit weight ``1 / (1 - dL(u))``, and ``psi1 + psi2`` is the influence
of ``-log(1 - F_hat)``.  For a continuous hazard both weights are 1; at the
fitted hazard the early events, with small risk sets and large jumps, carry
most of the variance, and dropping the weights understates it.

The CDF remainder takes the sign of the delta method: the product-limit map
has derivative ``1 - F`` in the hazard, so ``F_hat - F = -(1 - F) mean(psi)``
plus the remainder ``Rn2``, as ``Lambda_hat - Lambda = -mean(psi) + Rn1``.

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
but instead tabulates, once per population on one set of edges,

* cumulatives that are finite from 0 (those whose integrand stays bounded),
* cumulatives of the divergent integrands ``rho`` and ``rho S_A`` anchored
  at the window end, used only through differences whose lower endpoint is
  a data point, or on panels whose coefficient is an exact zero.  Their
  first panel, below the first positive edge (about ``b 2**-100``), holds
  no cumulative, so a positive data point or time there is refused.

All per-subject evaluation is vectorized over subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .empirical import build_empirical, count_at_least
from .errors import ComputeError, WindowError
from .estimators import FittedCurves, fit
from .quadrature import (
    SmoothCumulative,
    geometric_edges,
    node_points,
    origin_graded_edges,
    panel_integrals,
)
from .stepfun import EvalGrid
from .truth import TruthModel

__all__ = [
    "DIVERGENCE_CAP",
    "OracleContext",
    "PluginContext",
    "make_oracle_context",
    "make_plugin_context",
    "subject_influence",
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

# uniform panels of the m, p and w tables; ``origin_graded_edges`` grades
# the first toward 0, for 293 in all
_TABLE_PANELS = 200

# values per (times, subjects) array in one chunk of ``plugin_variance``, and
# in one block of subjects of oracle ``subject_influence`` (512 KiB)
_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class OracleContext:
    """Oracle mode: influence values against a known population.

    ``model`` supplies the population functions ``risk``, ``entry_survival``,
    ``pooled_at_risk``, ``entry_cdf``, ``entry_terms`` (the previous three
    with one entry-survival evaluation, for the tables), ``influence_weight``,
    ``pooled_density``, ``event_subdist_density`` and ``in_units``; every
    ``TruthModel`` has them, and the representation residuals take only a
    ``TruthModel``.  The evaluation window is the grid's [lower, b] span.
    """

    model: TruthModel
    grid: EvalGrid

    @cached_property
    def unit(self) -> float:
        """The tables' unit of time: the power of two with ``b / unit`` in [1, 2)."""
        return 2.0 ** (math.frexp(self.grid.b)[1] - 1)

    @cached_property
    def tables(self) -> tuple[SmoothCumulative, ...]:
        """The cumulatives ``m``, ``p``, ``w``, ``g`` and ``v``, built on first read.

        From 0, ``m`` integrates the pooled density over the squared pooled
        at-risk function, ``p`` the influence weight ``rho`` times
        ``1 - S_A``, and ``w`` the product ``rho S_A m``.  ``g`` and ``v``
        hold minus the integrals of ``rho`` and of ``rho S_A`` from a point
        to the window end: both diverge at 0, and their reads are valid from
        the first positive edge (about ``b 2**-100``) on.  The five share
        their edges, and the population is evaluated once at their nodes.
        They count time in ``unit``, on [0, b / unit]: read at ``x / unit``,
        each gives the population's cumulative at x, with the same floats at
        every power-of-two time scale.
        """
        model = self.model.in_units(self.unit)
        edges = origin_graded_edges(self.grid.b / self.unit, _TABLE_PANELS)
        u = node_points(edges).ravel()
        with np.errstate(all="ignore"):
            s_a, f_a, k = (np.asarray(x, dtype=float) for x in model.entry_terms(u))
            m_table = SmoothCumulative(
                edges, np.asarray(model.pooled_density(u), dtype=float) / k**2
            )
            del k
            rho = np.asarray(model.influence_weight(u), dtype=float)
            p_table = SmoothCumulative(edges, rho * f_a)
            g_table = SmoothCumulative(edges, rho, right=True)
            # each node array is freed once read, so the m read at the nodes,
            # the peak of the build, holds only u and rho S_A beside it
            rho_s_a = rho * s_a
            del s_a, f_a, rho
            v_table = SmoothCumulative(edges, rho_s_a, right=True)
            w_table = SmoothCumulative(edges, rho_s_a * m_table.query(u))
        return m_table, p_table, w_table, g_table, v_table


@dataclass(frozen=True)
class PluginContext:
    """Plugin mode: the fitted curves of one sample stand in for the population.

    The evaluation window is the grid's [lower, b] span.  The event and pooled
    tables below, and the reads that ``plugin_variance`` shares between its
    chunks, are built the first time they are read and kept.
    """

    curves: FittedCurves
    grid: EvalGrid

    @property
    def dataset(self) -> Dataset:
        return self.curves.empirical.dataset

    @cached_property
    def event_w(self) -> np.ndarray:
        """Event fraction over squared floored risk at each distinct event time."""
        emp = self.curves.empirical
        return emp.event_counts / emp.n / self.curves.hazard_steps[1] ** 2

    @cached_property
    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """Jump weights and the second-moment prefix of the pooled sample.

        At a pooled mass point (jump count dq, at-risk count kq, so kq >= dq
        >= 1) the gain ``1/(1 - dq/kq)`` is the derivative factor of its
        Kaplan-Meier factor; a zero factor (dq = kq, only at the last pooled
        time) stays 0 under every perturbation of the sample, so its gain is
        0.  The jump weight is the gain over ``#{a >= s}/n + #{v >= s}/n``,
        two fractions rounded apart (``kq / n`` rounds differently).  The
        prefix sums (pooled jump)/(pooled at-risk)^2 weighted by the gain.
        """
        emp = self.curves.empirical
        d, n, s = emp.dataset, emp.n, emp.pooled_times
        kq = emp.pooled_at_risk_counts.astype(float)
        dq = emp.pooled_jumps.astype(float)
        open_factor = dq < kq
        gain = np.where(open_factor, kq / np.where(open_factor, kq - dq, 1.0), 0.0)
        at_risk_a, at_risk_v = (count_at_least(np.sort(x), s) for x in (d.a, d.v))
        k = at_risk_a / n + at_risk_v / n
        return gain / k, np.concatenate(([0.0], np.cumsum(n * dq / kq**2 * gain)))

    @cached_property
    def event_entry_m(self) -> tuple[np.ndarray, np.ndarray]:
        """Fitted entry survival and pooled prefix at each distinct event time."""
        u = self.curves.empirical.event_times
        return self.curves.entry_survival.at(u), _plugin_m(self, u)

    @cached_property
    def cdf_gain(self) -> np.ndarray:
        """Product-limit gain ``1 / (1 - dL(u))`` at each distinct event time.

        A clamped factor (``dL(u) >= 1``) gets 0: it makes the fitted CDF
        identically 1 from ``u`` on (see ``plugin_variance``).
        """
        factor = 1.0 - self.curves.hazard_steps[0]
        open_factor = factor > 0
        return np.where(open_factor, 1.0 / np.where(open_factor, factor, 1.0), 0.0)

    @cached_property
    def grid_reads(self):
        """``_event_reads`` at the grid points: the reads of every
        ``subject_influence`` call that ``plugin_variance`` makes."""
        return _event_reads(self, self.grid.points)


def make_oracle_context(model: TruthModel, grid: EvalGrid) -> OracleContext:
    return OracleContext(model, grid)


def make_plugin_context(d: Dataset, grid: EvalGrid) -> PluginContext:
    """Context with every population quantity replaced by its fitted curve."""
    return PluginContext(FittedCurves(build_empirical(d)), grid)


def _plugin_m(ctx: PluginContext, x):
    """Plugin pooled-hazard second-moment prefix evaluated at x."""
    idx = np.searchsorted(
        ctx.curves.empirical.pooled_times, np.asarray(x, dtype=float), side="right"
    )
    return ctx.pooled[1][idx]


def _event_reads(ctx: PluginContext, times: np.ndarray):
    """Gain-weighted event prefix sums, and their values at ``times``.

    With ``w = event_w * cdf_gain``, returns ``(prefix, at_times)``:
    ``prefix`` holds the prefix sums over the distinct event times of ``w``,
    ``w S_A`` and ``w S_A m``, and ``at_times`` those three sums over the
    events up to each time, then the pooled prefix ``m`` at each time.
    """
    w = ctx.event_w * ctx.cdf_gain
    entry_surv, m_u = ctx.event_entry_m
    ws = w * entry_surv
    prefix = tuple(np.concatenate(([0.0], np.cumsum(x))) for x in (w, ws, ws * m_u))
    kt = np.searchsorted(ctx.curves.empirical.event_times, times, side="right")
    return prefix, tuple(p[kt] for p in prefix) + (_plugin_m(ctx, times),)


class _SortedQueries:
    """One query array, sorted once, for elementwise lookups."""

    def __init__(self, x: np.ndarray):
        self.order = np.argsort(x)
        self.sorted = x[self.order]

    def map(self, lookup):
        """Elementwise ``lookup`` run on the sorted values, in query order."""
        return self.scatter(lookup(self.sorted))

    def scatter(self, found):
        """Values found for the sorted values, in query order."""
        out = np.empty_like(found)
        out[self.order] = found
        return out


# ---------------------------------------------------------------------------
# oracle tables


def _locate(ctx: OracleContext, x):
    """The position of the times ``x`` on the oracle tables' shared edges, at
    ``x / unit``; a time past the window end is read at it."""
    return ctx.tables[0].locate(np.minimum(x, ctx.grid.b) / ctx.unit)


def _below_first_edge(ctx: OracleContext, x) -> bool:
    """Whether a positive time of ``x`` lies on the tables' first panel,
    where the ``g`` and ``v`` tables hold no cumulative."""
    return np.min(x, where=x > 0, initial=np.inf) / ctx.unit < ctx.tables[0].edges[1]


def _check_oracle_sample(ctx: OracleContext, a, v, delta):
    """Refuse samples whose oracle influence values diverge or leave the tables.

    Entry delays must be positive, and an observed event needs a positive
    residual time; v = 0 with delta = 0 is allowed, since each term it
    reads is an exact zero.  A positive a or v on the first panel of the
    ``g`` and ``v`` tables, below about ``b 2**-100``, is refused; the
    samples of ``sample_lbrc`` stay decades above it.
    """
    if np.any(a <= 0):
        raise ComputeError("oracle influence needs positive entry delays")
    if np.any((v == 0) & (delta == 1)):
        raise ComputeError(
            "residual time 0 with an observed event makes the risk correction diverge"
        )
    if _below_first_edge(ctx, a) or _below_first_edge(ctx, v):
        raise ComputeError(
            "an entry delay or residual time lies below the oracle tables' first positive edge"
        )


# ---------------------------------------------------------------------------
# per-subject evaluation


def _evaluation_times(ctx: OracleContext | PluginContext, times) -> np.ndarray:
    """``times`` as a flat float array; ``ValueError`` for a time that is
    not finite, below 0, past the window end or, in oracle mode, positive
    and on the tables' first panel."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ValueError("evaluation times must be finite")
    if np.any(times < 0):
        raise ValueError("evaluation time below 0")
    # a slack relative to b, so that a power-of-two change of time unit
    # scales it exactly
    if np.any(times > ctx.grid.b + 1e-12 * ctx.grid.b):
        raise ValueError("evaluation time beyond the context window")
    if isinstance(ctx, OracleContext) and _below_first_edge(ctx, times):
        raise ValueError("evaluation time below the oracle tables' first positive edge")
    return times


def subject_influence(ctx: OracleContext | PluginContext, a, v, delta, times):
    """Influence values for each subject at each time.

    Returns three arrays of shape ``(len(times), n)``: the pooled-entry
    influence, the direct hazard influence, and the estimated-risk hazard
    correction.  Both modes evaluate ``_influence_from_reads``; the oracle
    mode goes over every time for a block of ``_BLOCK_VALUES // len(times)``
    subjects (at least one) at a time, as ``plugin_variance`` does.  A NaN or
    infinite time raises ``ValueError``, as does one below 0 or past the
    window end, or, in oracle mode, on the tables' first panel above 0.

    With a plugin context the subjects are those of the context's sample, in
    any order: each a, uncensored v and uncensored y must be a data point of
    it, or ``ValueError`` is raised.  Every term of each event's hazard
    increment carries the product-limit gain ``PluginContext.cdf_gain``, so
    ``psi1 + psi2`` is the influence of ``-log(1 - F_hat)``, the plugin
    counterpart of the oracle influence of ``Lambda = -log(1 - F)``, and
    ``(1 - F_hat) (psi1 + psi2)`` is the exact derivative of the reported CDF
    that ``plugin_variance`` sums.  Handed the context's own ``grid.points``
    array, a call reads the grid from ``grid_reads``, built once per context.
    """
    own_grid = isinstance(ctx, PluginContext) and times is ctx.grid.points
    a = np.asarray(a, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    delta = np.asarray(delta).reshape(-1).astype(float)
    times = _evaluation_times(ctx, times)
    if isinstance(ctx, OracleContext):
        return _oracle_subject_influence(ctx, a, v, delta, times)
    reads = ctx.grid_reads if own_grid else _event_reads(ctx, times)
    return _plugin_subject_influence(ctx, a, v, delta, times, reads)


def _oracle_subject_influence(ctx: OracleContext, a, v, delta, times):
    """Oracle reads for ``_influence_from_reads``: V from the ``v`` table,
    G = p + V, which differs from the divergent cumulative of ``rho`` by a
    constant that every use cancels, Q = w and M = m.  Blocks of subjects go
    into preallocated outputs."""
    _check_oracle_sample(ctx, a, v, delta)
    y = a + v
    model = ctx.model
    m_t, p_t, w_t, _, v_t = ctx.tables

    def read_column(x, tables):
        # a subject column is sorted once, and located once in that order on
        # the tables' shared edges; values beyond the window end are masked
        # by the ``<= t`` clauses that read them, or multiplied by a masked zero
        by_x = _SortedQueries(x)
        at = _locate(ctx, by_x.sorted)
        return [by_x.scatter(table.read(at)) for table in tables]

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
    del k_a, k_v, r_y  # each (n,) array freed here lowers the peak

    m_a, p_a, w_a, v_a = read_column(a, (m_t, p_t, w_t, v_t))
    g_a = p_a + v_a
    d_a = m_a - inv_k_a
    const_a = g_a - w_a + d_a * v_a
    del m_a, p_a, w_a, v_a, inv_k_a
    p_y, v_y = read_column(y, (p_t, v_t))
    psi1_y = p_y + v_y - g_a - own_event
    del p_y, v_y, own_event
    m_v, w_v, v_v = read_column(v, (m_t, w_t, v_t))
    d_v = m_v - inv_k_v
    const_v = d_v * v_v - w_v
    del m_v, w_v, v_v, inv_k_v
    subject = (g_a, psi1_y, const_a, const_v, d_a, d_v)

    at = _locate(ctx, times)
    p_at, w_at, m_at, v_at = (table.read(at) for table in (p_t, w_t, m_t, v_t))
    at_times = (p_at + v_at, v_at, w_at, m_at)
    out = tuple(np.empty((times.size, a.size)) for _ in range(3))
    width = max(1, _BLOCK_VALUES // max(times.size, 1))
    for lo in range(0, a.size, width):
        cols = slice(lo, lo + width)
        block = _influence_from_reads(
            times, at_times, a[cols], v[cols], y[cols], tuple(x[cols] for x in subject)
        )
        for dst, src in zip(out, block):
            dst[:, cols] = src
    return out


def _plugin_subject_influence(ctx: PluginContext, a, v, delta, times, reads):
    emp = ctx.curves.empirical
    u, s, y = emp.event_times, emp.pooled_times, a + v
    pooled_weight, pooled_m_prefix = ctx.pooled
    # every lookup below runs on sorted queries: a search over sorted values
    # walks the table in order and is several times faster, and its result
    # depends only on the query value
    by_a, by_v, by_y = (_SortedQueries(x) for x in (a, v, y))
    idx_pa = by_a.map(lambda x: np.searchsorted(s, x, side="right"))
    idx_pv = by_v.map(lambda x: np.searchsorted(s, x, side="right"))
    ja = by_a.map(lambda x: np.searchsorted(u, x, side="left"))
    ia = by_a.map(lambda x: np.searchsorted(u, x, side="right"))
    jv = by_v.map(lambda x: np.searchsorted(u, x, side="left"))
    iv = by_v.map(lambda x: np.searchsorted(u, x, side="right"))
    iy = by_y.map(lambda x: np.searchsorted(u, x, side="right"))

    # in the context's own sample every a and every uncensored v is a pooled
    # mass point, and every uncensored y a distinct event time, each found
    # just below its right search position
    event = delta == 1
    at_y = iy[event] - 1
    if not (
        np.array_equal(s[idx_pa - 1], a)
        and np.array_equal(s[idx_pv[event] - 1], v[event])
        and np.all(at_y >= 0)
        and np.array_equal(u[at_y], y[event])
    ):
        raise ValueError(
            "plugin influence needs each a, uncensored v and uncensored y to be "
            "a data point of the context's sample"
        )
    m_a, m_v = pooled_m_prefix[idx_pa], pooled_m_prefix[idx_pv]
    # the pooled jump at a point carries the Kaplan-Meier factor of its mass
    inv_k_a = pooled_weight[idx_pa - 1]
    inv_k_v = np.where(event, pooled_weight[idx_pv - 1], 0.0)
    # an uncensored exit time is a distinct event time, with its floored risk
    # and gain
    own_event = np.zeros(a.size)
    own_event[event] = 1.0 / ctx.curves.hazard_steps[1][at_y]
    own_event[event] *= ctx.cdf_gain[at_y]
    # prefix sums over events of w, w * S_A and w * S_A * m: the reads G, V
    # and Q, here sums over the events before (left search position) or up
    # to (right) a point, since each data point may be an event time
    (pref_w, pref_ws, pref_wsm), at_times = reads
    w_a = pref_w[ja]
    psi1_y = pref_w[iy] - w_a - own_event
    const_a = w_a - pref_wsm[ia] + m_a * pref_ws[ia] - inv_k_a * pref_ws[ja]
    const_v = m_v * pref_ws[iv] - pref_wsm[iv] - inv_k_v * pref_ws[jv]
    subject = (w_a, psi1_y, const_a, const_v, m_a - inv_k_a, m_v - inv_k_v)
    return _influence_from_reads(times, at_times, a, v, y, subject)


def _influence_from_reads(times, at_times, a, v, y, subject):
    """phi, psi1 and psi2 at each time for each subject, in both modes.

    ``at_times`` holds the reads at each time of G, V, Q and M, the
    cumulatives of ``rho``, ``rho S_A``, ``rho S_A m`` and ``m``.  ``subject``
    holds G at a, psi1 once t passes y, the constant parts of psi2's a and v
    terms, ``d_a = m_a - 1/k_a`` and ``d_v = m_v - delta/k_v``.  The values
    change form only where t passes a, v or y, and are affine in the reads
    between.  The arrays run along their longer axis, (subjects, times) when
    longer.
    """
    long_grid = times.size > a.size
    t, g_t, v_t, q_t, m_t = (x if long_grid else x[:, None] for x in (times, *at_times))
    a, v, y, g_a, psi1_y, const_a, const_v, d_a, d_v = (
        x[:, None] if long_grid else x for x in (a, v, y, *subject)
    )
    a_le, v_le = a <= t, v <= t
    phi = np.where(a_le, d_a, m_t) + np.where(v_le, d_v, m_t)
    psi1 = np.where(y <= t, psi1_y, np.where(a_le, g_t - g_a, 0.0))
    psi2 = np.where(a_le, const_a - d_a * v_t, g_t - q_t)
    psi2 += np.where(v_le, const_v - d_v * v_t, -q_t)
    psi2 -= v_t
    return (phi.T, psi1.T, psi2.T) if long_grid else (phi, psi1, psi2)


# ---------------------------------------------------------------------------
# exact aggregated sample means (oracle mode)


def influence_means(
    ctx: OracleContext, d: Dataset, times, want: str = "both"
) -> dict[str, np.ndarray]:
    """Sample means of the influence functions at each time, in oracle mode.

    The per-subject sums are Stieltjes integrals of sample step functions
    against population measures.  The breaks are 0, the times and the a and v
    points up to the largest time: the pooled at-risk fraction ``k`` and the
    fraction ``a_bar`` of entry delays above u are constant between two of
    them, so each integral is a sum over these panels of a constant times the
    difference of an oracle cumulative table across the panel:

    * entry influence: ``k dm``, minus the exact sum of the pooled-sample
      jumps;
    * direct hazard influence: per subject, the integral of the influence
      weight ``rho`` over [a, min(y, t)] for a <= t, minus ``delta / r(y)``
      once y <= t.  With ``g`` the integral of ``rho``, a panel adds ``dg``
      for each subject at risk across it, and ``g(y) - g(b)`` less the event
      term for each subject whose y lies inside it, past its left break b;
    * risk correction: inside a panel the entry-influence mean is
      ``phi_b + k (m(u) - m_b)``, so the panel integral of
      ``rho (a_bar - S_A (1 + phi))`` is ``(a_bar - c) dg + c dp - k dw``
      with ``c = 1 + phi_b - k m_b``, ``p`` the integral of ``rho (1 - S_A)``
      and ``w`` that of ``rho S_A m``.

    The context's tables share one location of the breaks.  ``g`` diverges
    at 0 and is tabulated from the window end; on the first panel, right of
    0, no subject is at risk and ``a_bar = c = 1``, so its ``dg`` is weighted
    by exact zeros.  Once the context's tables exist, no density is
    evaluated.  The means agree with the averages of the per-subject values
    within 2e-14 up to n = 4000; the tests require 1e-10.

    ``want`` is "phi" for ``mean_phi`` alone, or "both" for ``mean_phi``,
    ``mean_psi1`` and ``mean_psi2``.  Times are refused as
    ``subject_influence`` refuses them, and no times give empty means.
    """
    if not isinstance(ctx, OracleContext):
        raise ValueError("influence_means requires an oracle context")
    if want not in ("phi", "both"):
        raise ValueError(f"want must be 'phi' or 'both', got {want!r}")
    _check_oracle_sample(ctx, d.a, d.v, d.delta)
    times = _evaluation_times(ctx, times)
    if not times.size:
        keys = ("mean_phi",) if want == "phi" else ("mean_phi", "mean_psi1", "mean_psi2")
        return {key: np.zeros(0) for key in keys}
    tmax = float(times.max())
    n = d.n
    model = ctx.model
    m_table, p_table, w_table, g_table, _ = ctx.tables

    # k and a_bar change only at 0, a, v and the times: the breaks are those
    # points up to tmax, and ``where`` places a, v, the times and 0 among them
    points, where = np.unique(np.concatenate([d.a, d.v, times, [0.0]]), return_inverse=True)
    t_idx = where[2 * n : -1]
    breaks = points[: t_idx.max() + 1]
    # #{a <= b} and #{v <= b} at the left break b of each panel
    le_a, le_v = (
        np.cumsum(np.bincount(where[k * n : (k + 1) * n], minlength=points.size)[: breaks.size - 1])
        for k in range(2)
    )
    bar_a = (n - le_a) / n
    k_panel = (2 * n - le_a - le_v) / n

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

    # the tables share their edges: the breaks are located once
    at_breaks = _locate(ctx, breaks)
    m_at_breaks = m_table.read(at_breaks)
    phi_smooth_prefix = np.concatenate(([0.0], np.cumsum(k_panel * np.diff(m_at_breaks))))
    # every pooled mass point up to tmax is a break: the jumps up to a break
    # are those on the breaks up to it that hold an a or an uncensored v
    mass = np.bincount(
        np.concatenate([where[:n], where[n : 2 * n][d.delta == 1]]), minlength=points.size
    )
    phi_at_breaks = phi_smooth_prefix - jump_prefix[np.cumsum(mass[: breaks.size] > 0)]
    out = {"mean_phi": phi_at_breaks[t_idx]}
    if want == "phi":
        return out

    # direct hazard influence mean: the integral of rho over [a, min(y, t)]
    # for each subject with a <= t, minus delta / r(y) once y <= t.  On the
    # panel right of break b a subject adds dg when a <= b and y is at or
    # above the panel's right end; one whose y lies inside the panel, past
    # b, adds g(y) - g(b), and one with y = a adds 0 at its a
    g_at_breaks = g_table.read(at_breaks)
    dg = np.diff(g_at_breaks)
    by_y = np.argsort(d.y)
    y_sorted = d.y[by_y]
    exited = by_y[: np.searchsorted(y_sorted, tmax, side="right")]
    y_exited = y_sorted[: exited.size]
    panel = np.maximum(np.searchsorted(breaks, y_exited) - 1, where[exited])
    partial = g_table.read(_locate(ctx, y_exited))
    partial -= g_at_breaks[panel]
    event = d.delta[exited] == 1
    partial[event] -= 1.0 / np.asarray(model.risk(y_exited[event]), dtype=float)
    inside = np.bincount(panel, minlength=breaks.size)
    psi1_panel = (le_a - np.cumsum(inside)[:-1]) * dg + np.bincount(
        panel, weights=partial, minlength=breaks.size
    )[:-1]
    out["mean_psi1"] = np.concatenate(([0.0], np.cumsum(psi1_panel)))[t_idx] / n

    # risk-correction influence mean: on each panel (a_bar - c) dg + c dp - k dw
    c = 1.0 + phi_at_breaks[:-1] - k_panel * m_at_breaks[:-1]
    psi2_panel = (
        (bar_a - c) * dg
        + c * np.diff(p_table.read(at_breaks))
        - k_panel * np.diff(w_table.read(at_breaks))
    )
    out["mean_psi2"] = np.concatenate(([0.0], np.cumsum(psi2_panel)))[t_idx]
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


# which -> fitted curve, true curve, influence means read, and the weight of
# the influence mean in the remainder as a function of the true curve
_REMAINDERS = {
    "Rn1": ("combined_cumhaz", "cumhaz", "both", lambda true: 1.0),
    "Rn2": ("cdf", "cdf", "both", lambda true: 1.0 - true),
    "Rn3": ("entry_survival", "entry_survival", "phi", lambda true: -true),
}


def _residual(which, d, ctx, grid, curves) -> RepresentationReport:
    """Remainder ``which`` over the grid: fitted minus true curve, plus the
    weighted influence mean of its representation."""
    if not (isinstance(ctx, OracleContext) and isinstance(ctx.model, TruthModel)):
        raise ValueError("representation residuals need an oracle context of a truth model")
    fitted, true, want, weight = _REMAINDERS[which]
    curves = curves if curves is not None else fit(d)
    means = influence_means(ctx, d, grid.points, want=want)
    mean = means["mean_phi"] if want == "phi" else means["mean_psi1"] + means["mean_psi2"]
    f_true = np.asarray(getattr(ctx.model, true)(grid.points), dtype=float)
    gap = getattr(curves, fitted).at(grid.points) - f_true
    residual = gap + weight(f_true) * mean
    return RepresentationReport(which, grid, mean, residual, float(np.abs(residual).max()))


def residual_hazard(
    d: Dataset, ctx: OracleContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the hazard representation over the grid:
    ``Lambda_hat - Lambda = -mean(psi) + Rn1``."""
    return _residual("Rn1", d, ctx, grid, curves)


def residual_cdf(
    d: Dataset, ctx: OracleContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the CDF representation over the grid.

    The product-limit map has derivative ``1 - F`` in the hazard, so the
    delta method turns the hazard representation into
    ``F_hat - F = -(1 - F) mean(psi) + Rn2``, and the remainder is
    ``gap + (1 - F) mean(psi)`` with ``gap = F_hat - F``.
    """
    return _residual("Rn2", d, ctx, grid, curves)


def residual_entry_survival(
    d: Dataset, ctx: OracleContext, grid: EvalGrid, curves: FittedCurves | None = None
) -> RepresentationReport:
    """Remainder of the pooled entry-survival representation:
    ``S_A_hat - S_A = S_A mean(phi) + Rn3``."""
    return _residual("Rn3", d, ctx, grid, curves)


# ---------------------------------------------------------------------------
# variance, iterated-logarithm curves, window diagnostic


@dataclass(frozen=True)
class LilCurves:
    """Pointwise fluctuation-scale curves for the CDF estimate.

    ``d`` integrates the influence weight ``rho`` over the window: the scale
    of the hazard influence mean.  The CDF takes the delta-method sign,
    ``F_hat - F = -(1 - F) mean(psi) + Rn2`` (see ``residual_cdf``), and ``v``
    follows the stated form ``v^2 = (1 - F) d``.
    """

    d: np.ndarray
    v: np.ndarray


def lil_quantities(ctx: PluginContext) -> LilCurves:
    """Fitted fluctuation curves on the context's grid: ``d(t)`` sums
    ``ctx.event_w`` over the distinct event times in (window lower edge, t]."""
    if not isinstance(ctx, PluginContext):
        raise ValueError("lil_quantities requires a plugin context")
    grid = ctx.grid
    u = ctx.curves.empirical.event_times
    pref = np.concatenate(([0.0], np.cumsum(ctx.event_w)))
    hi_idx = np.searchsorted(u, grid.points, side="right")
    lo_idx = np.searchsorted(u, grid.lower, side="right")
    d_vals = pref[hi_idx] - pref[lo_idx]
    surv = np.clip(1.0 - ctx.curves.cdf.at(grid.points), 0.0, 1.0)
    return LilCurves(d=d_vals, v=np.sqrt(surv * d_vals))


def plugin_variance(ctx: PluginContext) -> np.ndarray:
    """Pointwise variance of the fitted CDF via plugin influence values.

    The summand of each subject is the exact derivative of the reported
    product-limit estimate ``F(t) = 1 - prod_{u <= t} (1 - dL(u))``.  Its
    derivative in the jump ``dL(u)`` is ``(1 - F(t)) / (1 - dL(u))``, so every
    event's hazard-increment terms carry the weight ``1 / (1 - dL(u))``; the
    entry-survival influence inside the hazard influence carries the
    Kaplan-Meier factor in the same way (see ``PluginContext.pooled``).
    Plugin ``subject_influence`` applies both, so the summand is
    ``(1 - F) (psi1 + psi2)``.  A clamped factor (``dL(u) >= 1``) gets weight
    0: it makes ``F`` identically 1 from ``u`` on, where the variance is 0.

    ``ctx`` is a plugin context; its dataset and grid fix the sample and the
    evaluation points.

    The sample is walked in chunks of subjects: each chunk is one
    ``subject_influence`` call over the whole grid, whose arrays hold at most
    ``_BLOCK_VALUES`` values, so each subject is set up once.  What depends
    only on the context and the grid, the gain-weighted event prefix sums and
    their values at the grid points, is read once per context
    (``PluginContext.grid_reads``), not once per chunk.  The chunks' means
    and sums of squared deviations are merged by the pairwise update of Chan,
    Golub and LeVeque.  Memory is bounded by the chunk whatever n and the
    grid; the time is still proportional to (grid times) x n.  The result
    agrees with one pass over all subjects to a few ulps of the largest
    variance, and a row of zeros stays exactly 0.
    """
    if not isinstance(ctx, PluginContext):
        raise ValueError("plugin_variance requires a plugin context")
    d, points = ctx.dataset, ctx.grid.points
    scale = (1.0 - ctx.curves.cdf.at(points))[:, None]
    width = max(1, _BLOCK_VALUES // points.size)
    count, mean, m2 = 0, np.zeros(points.size), np.zeros(points.size)
    for lo in range(0, d.n, width):
        rows = slice(lo, lo + width)
        _, x, psi2 = subject_influence(ctx, d.a[rows], d.v[rows], d.delta[rows], points)
        # x = scale * (psi1 + psi2), in place
        x += psi2
        x *= scale
        size, shift = x.shape[1], x.mean(axis=1) - mean
        total = count + size
        mean += shift * (size / total)
        m2 += x.var(axis=1) * size + shift**2 * (count * size / total)
        count = total
        del x, psi2  # the next chunk's arrays take their place
    return m2 / d.n / d.n


def assumption3_diagnostic(ctx: OracleContext, b: float) -> float:
    """Window admissibility integral: event measure over cubed risk.

    Returns the population integral over (window lower edge, b]; raises
    ``WindowError`` when it exceeds ``DIVERGENCE_CAP``, which marks the window
    as too wide for stable rate measurement.
    """
    if not isinstance(ctx, OracleContext):
        raise ValueError("assumption3_diagnostic requires an oracle context")
    b = float(b)
    lower = ctx.grid.lower
    if b <= lower:
        raise ValueError("b must exceed the window's lower edge")
    model = ctx.model
    # an integrand that leaves the float range makes the sum inf or NaN,
    # which the cap check below refuses
    with np.errstate(all="ignore"):
        val = float(
            panel_integrals(
                lambda u: model.event_subdist_density(u) / model.risk(u) ** 3,
                geometric_edges(lower, b, ratio=1.12),
            ).sum()
        )
    if not np.isfinite(val) or val > DIVERGENCE_CAP:
        raise WindowError(
            f"window diagnostic {val:.6g} exceeds cap {DIVERGENCE_CAP:.6g}; "
            f"shrink b below the heavy tail"
        )
    return val
