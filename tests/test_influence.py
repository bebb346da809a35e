import pickle
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles

from lbrc import influence, quadrature
from lbrc.data import Dataset
from lbrc.errors import ComputeError, WindowError
from lbrc.empirical import build_empirical
from lbrc.estimators import (
    estimate_combined_risk,
    estimate_entry_survival,
    fit,
    hazard_steps,
    huang_qin_cdf,
)
from lbrc.influence import (
    assumption3_diagnostic,
    influence_means,
    lil_quantities,
    make_oracle_context,
    make_plugin_context,
    plugin_variance,
    residual_cdf,
    residual_entry_survival,
    residual_hazard,
    subject_influence,
)
from lbrc.quadrature import panel_integrals
from lbrc.simulate import sample_lbrc
from lbrc.stepfun import EvalGrid
from lbrc.truth import ExponentialModel, WeibullModel

MODEL = ExponentialModel(censor_rate=0.5, rate=1.0)
GRID = MODEL.default_grid()
# plugin variances that round differently agree to this fraction of the
# sample's largest variance
VARIANCE_RTOL = 1e-12
CTX = make_oracle_context(MODEL, GRID)
# ``influence_means`` and its fine-panel reference sum the same table reads
# in different orders; they agree to this fraction of each mean's largest
# value
COARSE_BREAKS_RTOL = 1e-11


def upper_half_context():
    """Abstract population with no mass below 0.5 and unit risk."""
    grid = EvalGrid.of_points([1e-9, 0.5, 1.0])
    population = oracles.FunctionPopulation(
        r_fn=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        s_a_fn=lambda u: 1.0 - 0.5 * np.clip(np.asarray(u, dtype=float), 0.0, 1.0),
        k_fn=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        q_density=lambda u: 2.0 * ((np.asarray(u, dtype=float) >= 0.5) & (np.asarray(u) <= 1.0)),
        fu_density=lambda u: 2.0 * ((np.asarray(u, dtype=float) >= 0.5) & (np.asarray(u) <= 1.0)),
    )
    return make_oracle_context(population, grid)


def unit_risk_uniform_context(lower=1e-9):
    """Unit risk, uniform event measure on [0, 1]."""
    grid = EvalGrid(np.linspace(lower, 1.0, 21), 1.0)
    ones = lambda u: np.ones_like(np.asarray(u, dtype=float))
    inside = lambda u: ((np.asarray(u, dtype=float) >= 0.0) & (np.asarray(u) <= 1.0)) * 1.0
    population = oracles.FunctionPopulation(
        r_fn=ones, s_a_fn=lambda u: 1.0 - inside(u) * np.asarray(u) * 0.5,
        k_fn=ones, q_density=inside, fu_density=inside,
    )
    return make_oracle_context(population, grid)


def fd_sample():
    """A 20-subject sample, a median and a 0.8-quantile grid point.

    The replicated finite difference is the derivative only where replication
    leaves every guard untouched: each point has an event at or before it, no
    hazard denominator up to it is floored at 1/n (the floor moves to 1/(Kn)
    under replication) and no hazard or pooled factor up to it is clamped.
    """
    d = sample_lbrc(MODEL, 20, seed=0)
    times = np.array([MODEL.quantile(0.5), MODEL.quantile(0.8)])
    grid = EvalGrid.of_points(times)
    ctx = make_plugin_context(d, grid)
    emp = ctx.curves.empirical
    u = emp.event_times[emp.event_times <= times.max()]
    assert np.all(emp.event_times.min() <= times)
    assert np.all(ctx.curves.combined_risk(u) > 1.0 / d.n)
    assert np.all(ctx.curves.hazard_steps[0][: u.size] < 1.0)
    pooled = emp.pooled_times <= times.max()
    assert np.all(emp.pooled_jumps[pooled] < emp.pooled_at_risk_counts[pooled])
    return d, times, grid


def replicated_derivatives(d, times, copies):
    """Finite-difference derivatives of log S_A, -log(1 - F) and the CDF F.

    The sample is replicated ``copies`` times and one more copy of subject i
    is added: that moves the empirical measure by ``1 / (copies * n + 1)``
    towards subject i, so the change times ``copies * n + 1`` approaches the
    derivative of each estimate in that direction as ``copies`` grows.
    Returns three arrays of shape ``(len(times), n)``.
    """

    def estimates(a, v, delta):
        sample = Dataset(a, v, delta)
        emp = build_empirical(sample)
        entry_surv = estimate_entry_survival(emp)
        risk = estimate_combined_risk(sample, entry_surv)
        cdf = huang_qin_cdf(emp, hazard_steps(emp, risk)).at(times)
        return np.array([np.log(entry_surv.at(times)), -np.log(1.0 - cdf), cdf])

    a, v, delta = (np.repeat(x, copies) for x in (d.a, d.v, d.delta))
    base = estimates(a, v, delta)
    out = np.empty((3, times.size, d.n))
    for i in range(d.n):
        out[:, :, i] = estimates(
            np.append(a, d.a[i]), np.append(v, d.v[i]), np.append(delta, d.delta[i])
        ) - base
    return out * (copies * d.n + 1)


def edge_case_sample():
    """A 300-row sample and times on which every lookup hits an edge case.

    It has ties, zero residuals, and entry delays or residuals equal to data
    times; the times are event times and entry delays.
    """
    base = sample_lbrc(MODEL, 300, seed=12)
    a, v = np.round(base.a, 2), np.round(base.v, 2)
    delta = base.delta.copy()
    v[:6] = 0.0
    delta[:3] = 0
    a[10:15] = a[20:25] + v[20:25]
    v[15:20] = a[30:35]
    v[35:40] = v[40:45]
    d = Dataset(a, v, delta)
    times = np.unique(np.concatenate([d.y[d.delta == 1][:40], d.a[:20]]))
    return d, times[times > 0]


def weibull_jumps_context():
    """Plugin context of a 4000-row Weibull-1.5 sample on its event times."""
    d = sample_lbrc(WeibullModel(censor_rate=0.5, shape=1.5), 4000, seed=21)
    return make_plugin_context(d, EvalGrid.of_points(np.unique(d.y[d.delta == 1])))


def _step_fields(f):
    return f.jump_times, f.values, f.initial_value


class TestContexts:
    SAMPLES = {
        "seed-0": sample_lbrc(MODEL, 200, seed=0),
        "seed-1": sample_lbrc(MODEL, 200, seed=1),
        "weibull-seed-2": sample_lbrc(WeibullModel(censor_rate=0.5, shape=1.5), 200, seed=2),
        "n=1": Dataset([0.7], [0.4], [1]),
        "all-tied": Dataset([1.0] * 6, [0.5] * 6, [1] * 6),
        "all-censored": Dataset([0.3, 1.0, 0.6], [0.2, 0.5, 0.9], [0, 0, 0]),
    }

    @pytest.mark.parametrize("case", list(SAMPLES))
    def test_plugin_fields_match_fit(self, case):
        d = self.SAMPLES[case]
        ctx = make_plugin_context(d, GRID)
        curves = fit(d)
        for name in ("cdf", "entry_survival"):
            got, want = getattr(ctx.curves, name), getattr(curves, name)
            for x, y in zip(_step_fields(got), _step_fields(want)):
                assert np.array_equal(x, y), name
        pts = np.unique(np.concatenate([d.a, d.v, d.y]))
        assert np.array_equal(ctx.curves.combined_risk(pts), curves.combined_risk(pts))
        for name in ("pooled_times", "pooled_jumps", "pooled_at_risk_counts",
                     "event_times", "event_counts"):
            assert np.array_equal(
                getattr(ctx.curves.empirical, name), getattr(curves.empirical, name)
            ), name
        hazard = ctx.curves.hazard_steps
        assert hazard[0].shape == ctx.event_w.shape == curves.empirical.event_times.shape

    def test_contexts_are_frozen(self):
        plugin = make_plugin_context(self.SAMPLES["seed-0"], GRID)
        oracle = make_oracle_context(MODEL, GRID)
        for ctx, cached in ((plugin, "pooled"), (oracle, "tables")):
            with pytest.raises(FrozenInstanceError):
                ctx.grid = GRID
            with pytest.raises(FrozenInstanceError):
                setattr(ctx, cached, None)


class TestTrivialZeroes:
    def test_entry_influence_zero_below_all_mass(self):
        phi, _, _ = subject_influence(upper_half_context(), [0.9], [0.7], [1], [0.3])
        assert phi[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_direct_influence_zero_below_entry_and_mass(self):
        _, psi1, _ = subject_influence(upper_half_context(), [0.45], [0.6], [1], [0.4])
        assert psi1[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_risk_correction_zero_below_mass(self):
        _, _, psi2 = subject_influence(upper_half_context(), [0.1], [0.2], [1], [0.45])
        assert psi2[0, 0] == pytest.approx(0.0, abs=1e-10)


class TestOracleAgainstDirectQuadrature:
    """Table-based per-subject values vs plain adaptive quadrature."""

    cases = [(0.3, 0.8, 1), (1.1, 0.2, 0), (0.15, 2.5, 1), (2.0, 0.05, 1)]
    times = [0.3, 1.0, GRID.b]

    @staticmethod
    def _m_direct(s):
        return integrate.quad(
            lambda u: MODEL.pooled_density(u) / MODEL.pooled_at_risk(u) ** 2, 0, s, limit=200
        )[0]

    def _phi_direct(self, a, v, delta, t):
        val = self._m_direct(min(t, a)) + self._m_direct(min(t, v))
        if a <= t:
            val -= 1.0 / MODEL.pooled_at_risk(a)
        if delta == 1 and v <= t:
            val -= 1.0 / MODEL.pooled_at_risk(v)
        return val

    def test_phi_psi1_psi2(self):
        a, v, dl = (np.array(x) for x in zip(*self.cases))
        phi, psi1, psi2 = subject_influence(CTX, a, v, dl, self.times)
        for j, t in enumerate(self.times):
            for i, (aa, vv, dd) in enumerate(self.cases):
                assert phi[j, i] == pytest.approx(self._phi_direct(aa, vv, dd, t), abs=1e-10)

                want1 = 0.0
                if t >= aa:
                    want1 = integrate.quad(
                        MODEL.influence_weight, aa, min(aa + vv, t), limit=200
                    )[0]
                if dd == 1 and aa + vv <= t:
                    want1 -= 1.0 / MODEL.risk(aa + vv)
                assert psi1[j, i] == pytest.approx(want1, abs=1e-10)

                def integrand(u):
                    ind = 1.0 if aa > u else 0.0
                    return MODEL.influence_weight(u) * (
                        ind
                        - MODEL.entry_survival(u)
                        - MODEL.entry_survival(u) * self._phi_direct(aa, vv, dd, u)
                    )

                pts = sorted({p for p in (aa, vv, aa + vv) if 0 < p < t})
                want2, lo = 0.0, 0.0
                for p in pts + [t]:
                    want2 += integrate.quad(integrand, lo, p, limit=300)[0]
                    lo = p
                assert psi2[j, i] == pytest.approx(want2, abs=1e-9)


class TestAlgebraicIdentities:
    """Per-subject sums equal their exact integral re-expressions."""

    def test_means_match_per_subject_sums(self):
        d = sample_lbrc(MODEL, 300, seed=17)
        ts = GRID.points[[0, 6, 12, 24]]
        phi, psi1, psi2 = subject_influence(CTX, d.a, d.v, d.delta, ts)
        means = influence_means(CTX, d, ts)
        assert np.abs(phi.mean(axis=1) - means["mean_phi"]).max() < 1e-10
        assert np.abs(psi1.mean(axis=1) - means["mean_psi1"]).max() < 1e-10
        assert np.abs(psi2.mean(axis=1) - means["mean_psi2"]).max() < 1e-10

    @staticmethod
    def _zero_residual_sample():
        d = sample_lbrc(MODEL, 300, seed=19)
        v, delta = d.v.copy(), d.delta.copy()
        v[[4, 50, 211]] = 0.0
        delta[[4, 50, 211]] = 0
        return Dataset(d.a, v, delta)

    @staticmethod
    def _times_on_data():
        d = sample_lbrc(MODEL, 300, seed=21)
        pts = np.concatenate([d.a[:3], d.v[:3], d.y[:3]])
        return d, np.sort(pts[pts <= GRID.b])

    @pytest.mark.parametrize("case", ["weibull-1.5", "zero-residuals", "times-on-data", "n=1"])
    def test_means_match_per_subject_sums_cases(self, case):
        ctx, ts = CTX, GRID.points[[0, 6, 12, 24]]
        if case == "weibull-1.5":
            model = WeibullModel(censor_rate=0.5, shape=1.5)
            ctx = make_oracle_context(model, model.default_grid())
            ts = ctx.grid.points[[0, 6, 12, 24]]
            d = sample_lbrc(model, 300, seed=17)
        elif case == "zero-residuals":
            d = self._zero_residual_sample()
        elif case == "times-on-data":
            d, ts = self._times_on_data()
        else:
            d = Dataset([0.7], [0.4], [1])
        phi, psi1, psi2 = subject_influence(ctx, d.a, d.v, d.delta, ts)
        means = influence_means(ctx, d, ts)
        assert np.abs(phi.mean(axis=1) - means["mean_phi"]).max() < 1e-10
        assert np.abs(psi1.mean(axis=1) - means["mean_psi1"]).max() < 1e-10
        assert np.abs(psi2.mean(axis=1) - means["mean_psi2"]).max() < 1e-10

    @pytest.mark.parametrize(
        "case",
        [
            "exponential-4000",
            "weibull-1.5",
            "weibull-0.7",
            "zero-residuals",
            "times-on-data",
            "n=1",
            "time-below-anchor",
            "phi",
        ],
    )
    def test_coarse_breaks_match_fine_panels(self, case):
        # the sums over the breaks 0, a, v and the times, with the direct
        # hazard term per subject, agree with the sums over the fine panels
        # between all data points to a fraction of each mean's largest value
        ctx, ts, want = CTX, GRID.points, "both"
        if case == "exponential-4000":
            d = sample_lbrc(MODEL, 4000, seed=23)
        elif case.startswith("weibull"):
            model = WeibullModel(censor_rate=0.5, shape=float(case.split("-")[1]))
            ctx = make_oracle_context(model, model.default_grid())
            ts = ctx.grid.points
            d = sample_lbrc(model, 1000, seed=23)
        elif case == "zero-residuals":
            d = self._zero_residual_sample()
        elif case == "times-on-data":
            d, ts = self._times_on_data()
        elif case == "n=1":
            d = Dataset([0.7], [0.4], [1])
        elif case == "time-below-anchor":
            d = sample_lbrc(MODEL, 300, seed=29)
            first = min(d.a.min(), d.v[d.v > 0].min())
            ts = np.concatenate([[0.25 * first], GRID.points])
            assert ts[0] < oracles._anchor(ctx, d.a, d.v)
        else:
            d, want = sample_lbrc(MODEL, 1000, seed=23), "phi"
        got = influence_means(ctx, d, ts, want=want)
        ref = oracles.influence_means_fine_panels(ctx, d, ts, want=want)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            scale = np.abs(value).max()
            assert np.abs(got[key] - value).max() <= COARSE_BREAKS_RTOL * scale, key

    def test_means_read_tables_not_densities(self):
        # once the oracle tables exist, a call evaluates neither rho nor S_A
        points = {"influence_weight": 0, "entry_survival": 0}

        class Counting:
            def __getattr__(self, name):
                fn = getattr(MODEL, name)

                def counted(u):
                    points[name] += np.size(u)
                    return fn(u)

                return counted if name in points else fn

        ctx = make_oracle_context(Counting(), GRID)
        d = sample_lbrc(MODEL, 4000, seed=3)
        influence_means(ctx, d, GRID.points)
        points.update(dict.fromkeys(points, 0))
        influence_means(ctx, d, GRID.points)
        assert points == {"influence_weight": 0, "entry_survival": 0}

    def test_builds_no_table_after_the_context_tables(self, table_builds):
        ctx = make_oracle_context(MODEL, GRID)
        built = table_builds(influence)
        ctx.tables
        assert len(built) == 5
        built.clear()
        influence_means(ctx, sample_lbrc(MODEL, 500, seed=3), GRID.points)
        assert built == []

    def test_pickled_context_carries_its_tables(self, table_builds):
        ctx = make_oracle_context(MODEL, GRID)
        ctx.tables
        copy = pickle.loads(pickle.dumps(ctx))
        d = sample_lbrc(MODEL, 500, seed=3)
        built = table_builds(influence)
        got = influence_means(copy, d, GRID.points)
        assert built == []
        want = influence_means(ctx, d, GRID.points)
        for key in ("mean_phi", "mean_psi1", "mean_psi2"):
            assert np.array_equal(got[key], want[key]), key

    def test_pickled_context_keeps_its_chopped_series(self):
        model = WeibullModel(censor_rate=0.5, shape=1.5)
        ctx = make_oracle_context(model, model.default_grid())
        copy = pickle.loads(pickle.dumps(ctx))
        for table, back in zip(ctx.tables[:3], copy.tables[:3]):
            # the chop of the m, p and w series survives the pickle: the same
            # rows and bits, fewer than the NODES + 1 of an unchopped series
            assert len(back._coef) == len(table._coef) < quadrature.NODES + 1
            assert np.array_equal(back._coef, table._coef)
        # the five tables still share one edges array, so one position
        # serves all of them
        m_t, p_t, w_t, g_t, v_t = copy.tables
        assert m_t.edges is p_t.edges is w_t.edges is g_t.edges is v_t.edges

    def test_want_takes_phi_or_both(self):
        ctx = make_oracle_context(MODEL, GRID)
        d = sample_lbrc(MODEL, 50, seed=3)
        for want in ("psi", "psi1", ""):
            with pytest.raises(ValueError, match="'phi' or 'both'"):
                influence_means(ctx, d, GRID.points, want=want)

    def test_entry_influence_identity_two_sided(self):
        # mean entry influence == smooth pooled integral minus exact jump sum,
        # with the right-hand side assembled here independently
        d = sample_lbrc(MODEL, 120, seed=23)
        t = float(GRID.points[15])
        phi, _, _ = subject_influence(CTX, d.a, d.v, d.delta, [t])
        lhs = -phi.mean()

        from lbrc.empirical import build_empirical

        emp = build_empirical(d)
        breaks = np.unique(
            np.concatenate([[0.0, t], d.a[d.a < t], d.v[(d.v > 0) & (d.v < t)]])
        )
        k_vals = (
            np.searchsorted(np.sort(d.a), breaks[:-1], side="right")
            + np.searchsorted(np.sort(d.v), breaks[:-1], side="right")
        )
        k_step = 2.0 - k_vals / d.n
        smooth = np.sum(
            k_step
            * panel_integrals(
                lambda u: MODEL.pooled_density(u) / MODEL.pooled_at_risk(u) ** 2, breaks
            )
        )
        mask = emp.pooled_times <= t
        jumps = np.sum(
            emp.pooled_jumps[mask]
            / d.n
            / MODEL.pooled_at_risk(emp.pooled_times[mask])
        )
        rhs = -smooth + jumps
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_direct_hazard_identity_two_sided(self):
        d = sample_lbrc(MODEL, 150, seed=29)
        t = float(GRID.points[20])
        _, psi1, _ = subject_influence(CTX, d.a, d.v, d.delta, [t])
        lhs = -psi1.mean()

        ev = np.unique(d.y[(d.delta == 1) & (d.y <= t)])
        counts = np.array([np.sum((d.y == u) & (d.delta == 1)) for u in ev])
        part1 = np.sum(counts / d.n / MODEL.risk(ev))
        breaks = np.unique(np.concatenate([[0.0, t], d.a[d.a < t], d.y[d.y < t]]))
        rbar = np.array(
            [np.mean((d.a <= s) & (s <= d.y)) for s in (breaks[:-1] + breaks[1:]) / 2]
        )
        part2 = np.sum(rbar * panel_integrals(MODEL.influence_weight, breaks))
        assert lhs == pytest.approx(part1 - part2, abs=1e-10)

    def test_plugin_influence_means_vanish(self):
        # plugin substitution solves the estimating equations exactly, so the
        # per-dataset influence means are zero to rounding
        d = sample_lbrc(MODEL, 400, seed=31)
        ctx = make_plugin_context(d, GRID)
        _, psi1, psi2 = subject_influence(ctx, d.a, d.v, d.delta, GRID.points[[3, 12, 21]])
        assert np.abs((psi1 + psi2).mean(axis=1)).max() < 1e-12


class TestOracleEvaluator:
    """The shared evaluator in oracle mode against the one-time-at-a-time loop."""

    WEIBULL = WeibullModel(censor_rate=0.5, shape=1.5)

    @pytest.mark.parametrize(
        "case",
        ["exponential", "weibull-400", "zero-residuals", "times-on-data", "n=1",
         "width-1", "ragged"],
    )
    def test_matches_reference_loop(self, case, monkeypatch):
        ctx, ts = CTX, GRID.points
        if case == "weibull-400":
            # blocks of 163 and 37 subjects: both have more times than
            # subjects and run in the (subjects, times) layout
            ctx = make_oracle_context(self.WEIBULL, self.WEIBULL.default_grid(count=400))
            ts = ctx.grid.points
            d = sample_lbrc(self.WEIBULL, 200, seed=23)
            assert influence._BLOCK_VALUES // ts.size == 163
        elif case == "zero-residuals":
            d = TestAlgebraicIdentities._zero_residual_sample()
        elif case == "times-on-data":
            d, ts = TestAlgebraicIdentities._times_on_data()
        elif case == "n=1":
            d = Dataset([0.7], [0.4], [1])
        else:
            d = sample_lbrc(MODEL, 300, seed=29)
        if case == "width-1":
            monkeypatch.setattr(influence, "_BLOCK_VALUES", ts.size)
        elif case == "ragged":
            # 42 blocks of 7 of the 300 subjects, and one of 6
            monkeypatch.setattr(influence, "_BLOCK_VALUES", 7 * ts.size)
        got = subject_influence(ctx, d.a, d.v, d.delta, ts)
        want = oracles.oracle_subject_influence_loop(ctx, d.a, d.v, d.delta, ts)
        for name, x, ref in zip(("phi", "psi1", "psi2"), got, want):
            assert x.shape == (len(ts), d.n), name
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max(), name

    @pytest.mark.parametrize(
        "case", ["exponential", "weibull-1.5", "weibull-0.7-long-grid", "n=1", "times-on-data"]
    )
    def test_bit_identical_to_time_blocks(self, case):
        # blocks of subjects on six terms, one sort per subject column, the
        # edge count and the in-place recurrence change no bit of any value
        samples = {
            "exponential": (MODEL, 20_000, 10),
            "weibull-1.5": (self.WEIBULL, 3000, 10),
            "weibull-0.7-long-grid": (WeibullModel(censor_rate=0.5, shape=0.7), 500, 400),
        }
        if case in samples:
            model, n, count = samples[case]
            ctx = make_oracle_context(model, model.default_grid(count=count))
            d, ts = sample_lbrc(model, n, seed=31), ctx.grid.points
        elif case == "n=1":
            ctx, d, ts = CTX, Dataset([0.7], [0.4], [1]), GRID.points
        else:
            ctx, (d, ts) = CTX, TestAlgebraicIdentities._times_on_data()
        got = subject_influence(ctx, d.a, d.v, d.delta, ts)
        want = oracles.oracle_subject_influence_time_blocks(ctx, d.a, d.v, d.delta, ts)
        for name, x, ref in zip(("phi", "psi1", "psi2"), got, want):
            assert x.shape == ref.shape == (len(ts), d.n), name
            assert np.array_equal(x.view(np.int64), ref.view(np.int64)), name

    def test_shuffled_subjects_permute_columns_exactly(self):
        d = sample_lbrc(self.WEIBULL, 3000, seed=37)
        ctx = make_oracle_context(self.WEIBULL, self.WEIBULL.default_grid(count=10))
        perm = np.random.default_rng(3).permutation(d.n)
        got = subject_influence(ctx, d.a[perm], d.v[perm], d.delta[perm], ctx.grid.points)
        want = subject_influence(ctx, d.a, d.v, d.delta, ctx.grid.points)
        for x, ref in zip(got, want):
            assert np.array_equal(x.view(np.int64), ref[:, perm].view(np.int64))

    def test_builds_no_table_after_the_context_tables(self, table_builds):
        ctx = make_oracle_context(MODEL, GRID)
        ctx.tables
        built = table_builds(influence)
        d = sample_lbrc(MODEL, 300, seed=29)
        subject_influence(ctx, d.a, d.v, d.delta, GRID.points)
        assert built == []

    def test_locates_each_point_set_once_per_edge_set(self, monkeypatch):
        # a, v, y and the times, once each on the edges that the five
        # tables share
        calls = []
        locate = influence.SmoothCumulative.locate

        def counted(table, s):
            calls.append(table.edges)
            return locate(table, s)

        # built first: the w table's build reads the m table at its nodes
        CTX.tables
        monkeypatch.setattr(influence.SmoothCumulative, "locate", counted)
        d = sample_lbrc(MODEL, 300, seed=29)
        subject_influence(CTX, d.a, d.v, d.delta, GRID.points)
        assert len(calls) == 4
        assert all(edges is CTX.tables[0].edges for edges in calls)

    def test_memory_bounded_by_block(self):
        # the (10, 1e5) outputs take 24 MB; evaluating all times at once held
        # some 50 MB of temporaries on top, a block holds at most 512 KiB each
        grid = MODEL.default_grid(count=10)
        ctx = make_oracle_context(MODEL, grid)
        ctx.tables
        d = sample_lbrc(MODEL, 100_000, seed=202)
        tracemalloc.start()
        try:
            subject_influence(ctx, d.a, d.v, d.delta, grid.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45e6


class TestSharedNodeTables:
    """The m, p, w, g and v tables from one evaluation of the population at
    their shared nodes, against one build per table."""

    POPULATIONS = {
        "exponential": ExponentialModel(rate=1.0),
        "exponential-censored": MODEL,
        "exponential-1e-4": ExponentialModel(rate=1e-4),
        "exponential-1e-4-censored": ExponentialModel(censor_rate=0.5e-4, rate=1e-4),
        "weibull-0.7": WeibullModel(censor_rate=0.5, shape=0.7),
        "weibull-1.5": WeibullModel(censor_rate=0.5, shape=1.5),
        "weibull-2.5": WeibullModel(censor_rate=0.5, shape=2.5),
        "upper-half": upper_half_context,
        "unit-risk-uniform": unit_risk_uniform_context,
    }

    @pytest.mark.parametrize("name", list(POPULATIONS))
    def test_tables_bit_identical_to_one_build_per_table(self, name):
        population = self.POPULATIONS[name]
        if callable(population):
            ctx = population()
        else:
            ctx = make_oracle_context(population, population.default_grid())
        want = oracles.oracle_tables_one_build_each(ctx)
        assert len(ctx.tables) == len(want) == 5
        for label, got, ref in zip("mpwgv", ctx.tables, want):
            assert np.array_equal(got.edges, ref.edges), label
            assert np.array_equal(got.cum, ref.cum), label
            assert np.array_equal(got._coef, ref._coef), label

    def test_entry_survival_evaluated_once_per_node(self, monkeypatch):
        # counted on the class, so the reads inside pooled_at_risk count too
        points = []
        entry_survival = WeibullModel.entry_survival

        def counted(model, t):
            points.append(np.size(t))
            return entry_survival(model, t)

        monkeypatch.setattr(WeibullModel, "entry_survival", counted)
        model = WeibullModel(censor_rate=0.5, shape=1.5)
        ctx = make_oracle_context(model, model.default_grid())
        nodes = (ctx.tables[0].edges.size - 1) * quadrature.NODES
        assert sum(points) == nodes
        points.clear()
        # one build per table reads it for the m, w and v tables; the p
        # table's entry CDF is its own incomplete gamma, and g reads none
        oracles.oracle_tables_one_build_each(ctx)
        assert sum(points) == 3 * nodes


class TestFirstPanelPoints:
    """A positive point or time on the first panel of the g and v tables,
    where they hold no cumulative, is refused: a point some 40 decades below
    the window end or a subnormal one raises ``ComputeError``, as other
    oracle data refusals do, and a time there ``ValueError``, as one past
    the window does."""

    @staticmethod
    def _sample(case, tiny):
        d = sample_lbrc(MODEL, 300, seed=29)
        a, v, delta = d.a.copy(), d.v.copy(), d.delta.copy()
        if case == "a":
            a[0] = tiny
        else:
            v[0], delta[0] = tiny, 1
        assert 0.0 < tiny / CTX.unit < CTX.tables[0].edges[1]
        return Dataset(a, v, delta)

    @pytest.mark.parametrize("tiny", [1e-40 * GRID.b, 1e-320])
    @pytest.mark.parametrize("case", ["a", "v"])
    def test_point_refused(self, case, tiny):
        d = self._sample(case, tiny)
        with pytest.raises(ComputeError, match="first positive edge"):
            subject_influence(CTX, d.a, d.v, d.delta, GRID.points)
        with pytest.raises(ComputeError, match="first positive edge"):
            influence_means(CTX, d, GRID.points)

    def test_time_refused(self):
        d = sample_lbrc(MODEL, 300, seed=29)
        times = np.concatenate([[1e-40 * GRID.b], GRID.points])
        with pytest.raises(ValueError, match="first positive edge"):
            subject_influence(CTX, d.a, d.v, d.delta, times)
        with pytest.raises(ValueError, match="first positive edge"):
            influence_means(CTX, d, times)


class TestPowerOfTwoTimeUnit:
    """A time unit 2^k scales the model, the grid and the sample exactly, so
    oracle influence values and means are those at unit scale to the bit,
    from 2^-1000 to 2^1000: the tables count time in a power of two of the
    window end, whatever its scale."""

    FAMILIES = {
        "exponential": lambda unit: ExponentialModel(censor_rate=0.5 / unit, rate=1.0 / unit),
        "weibull-0.7": lambda unit: WeibullModel(censor_rate=0.5 / unit, shape=0.7, scale=unit),
        "weibull-1.5": lambda unit: WeibullModel(censor_rate=0.5 / unit, shape=1.5, scale=unit),
    }

    @staticmethod
    def _outputs(model, grid, d):
        ctx = make_oracle_context(model, grid)
        means = influence_means(ctx, d, grid.points)
        return subject_influence(ctx, d.a, d.v, d.delta, grid.points), means

    @pytest.mark.parametrize("k", [-1000, -990, -900, -600, 600, 900, 1000])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_oracle_outputs_unchanged(self, family, k):
        model, unit = self.FAMILIES[family], 2.0**k
        grid = model(1.0).default_grid(count=10)
        d = sample_lbrc(model(1.0), 300, seed=31)
        scaled = Dataset(d.a * unit, d.v * unit, d.delta)
        assert np.array_equal(scaled.a / unit, d.a) and np.array_equal(scaled.v / unit, d.v)
        want_values, want_means = self._outputs(model(1.0), grid, d)
        got_values, got_means = self._outputs(
            model(unit), EvalGrid(grid.points * unit, grid.b * unit), scaled
        )
        for name, got, want in zip(("phi", "psi1", "psi2"), got_values, want_values):
            assert np.array_equal(got, want), name
        assert got_means.keys() == want_means.keys()
        for key, want in want_means.items():
            assert np.array_equal(got_means[key], want), key


class TestMeanZero:
    def test_all_influences_mean_zero_monte_carlo(self):
        d = sample_lbrc(MODEL, 20000, seed=202)
        ts = GRID.points[[2, 8, 14, 20]]
        phi, psi1, psi2 = subject_influence(CTX, d.a, d.v, d.delta, ts)
        for arr in (phi, psi1, psi2):
            mean = arr.mean(axis=1)
            se = arr.std(axis=1) / np.sqrt(arr.shape[1])
            assert np.all(np.abs(mean) <= 3.0 * se)


class TestRepresentationResiduals:
    def test_single_observation_smoke(self):
        d = Dataset([1.0], [0.8], [1])
        for op in (residual_hazard, residual_cdf, residual_entry_survival):
            rep = op(d, CTX, GRID)
            assert np.isfinite(rep.residual_sup)

    def test_residuals_shrink_with_n(self):
        reps = 15
        sups = {"Rn1": [], "Rn2": [], "Rn3": []}
        for si, n in enumerate((400, 3200)):
            for name in sups:
                sups[name].append([])
            for r in range(reps):
                d = sample_lbrc(MODEL, n, np.random.SeedSequence(5, spawn_key=(si, r)))
                curves = fit(d)
                sups["Rn1"][si].append(residual_hazard(d, CTX, GRID, curves).residual_sup)
                sups["Rn2"][si].append(residual_cdf(d, CTX, GRID, curves).residual_sup)
                sups["Rn3"][si].append(
                    residual_entry_survival(d, CTX, GRID, curves).residual_sup
                )
        for name, vals in sups.items():
            small, large = np.median(vals[0]), np.median(vals[1])
            assert large < small, name

    def test_cdf_convention_minus_decays(self):
        # the delta-method sign: the remainder is gap + (1 - F) mean(psi); with
        # the plus sign it would track twice the influence mean instead
        d = sample_lbrc(MODEL, 2000, seed=71)
        curves = fit(d)
        rep = residual_cdf(d, CTX, GRID, curves)
        f_true = MODEL.cdf(GRID.points)
        gap = curves.cdf.at(GRID.points) - f_true
        assert np.array_equal(rep.residual, gap + (1.0 - f_true) * rep.influence_mean)
        plus = gap - (1.0 - f_true) * rep.influence_mean
        assert rep.residual_sup < np.abs(plus).max()

    def test_riskpart_mean_matches_risk_gap_integral(self):
        # the risk-correction mean approximates the integral of the pooled
        # minus classic risk gap, with error shrinking in n
        gaps = []
        for si, n in enumerate((200, 3200)):
            per = []
            for r in range(8):
                d = sample_lbrc(MODEL, n, np.random.SeedSequence(13, spawn_key=(si, r)))
                t = float(GRID.points[18])
                means = influence_means(CTX, d, [t])
                curves = fit(d)
                breaks = np.unique(
                    np.concatenate(
                        [[0.0, t], d.a[d.a < t], d.v[(d.v > 0) & (d.v < t)], d.y[d.y < t]]
                    )
                )
                mids = (breaks[:-1] + breaks[1:]) / 2
                diff = curves.combined_risk(mids) - np.array(
                    [np.mean((d.a <= s) & (s <= d.y)) for s in mids]
                )
                rhs = -np.sum(diff * panel_integrals(MODEL.influence_weight, breaks))
                per.append(abs(-means["mean_psi2"][0] - rhs))
            gaps.append(np.median(per))
        assert gaps[1] < 0.5 * gaps[0]


class TestLilQuantities:
    @staticmethod
    def check_literal(d, grid, risk_at, cdf_at):
        lil = lil_quantities(make_plugin_context(d, grid))
        want = np.array([oracles.plugin_lil_at(d, grid.lower, t, risk_at, cdf_at)
                         for t in grid.points])
        assert np.allclose(lil.d, want[:, 0], rtol=1e-12, atol=0.0)
        assert np.allclose(lil.v, want[:, 1], rtol=1e-12, atol=0.0)

    def test_matches_literal_definition_on_tied_sample(self):
        # two events and three censorings tied at 2.5, and the fitted risk
        # below 1/n at the events 3 and 3.5; the first grid point is an event
        # time, which the window's open lower edge leaves out
        d = Dataset([0.5, 0.5, 1.5, 2.0, 2.0, 1.0, 1.0, 1.0],
                    [2.0, 2.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.5],
                    [0, 0, 1, 0, 1, 1, 1, 1])
        grid = EvalGrid.of_points([2.0, 2.2, 2.5, 3.0, 3.5, 4.0])
        self.check_literal(d, grid, lambda u: oracles.combined_risk_at(d, u),
                           lambda t: oracles.huang_qin_cdf_at(d, t))

    def test_matches_literal_definition_on_500_rows(self):
        # the fitted curves are checked against the brute-force oracles
        # elsewhere; here they feed the literal sum
        d = sample_lbrc(MODEL, 500, seed=41)
        curves = fit(d)
        self.check_literal(d, MODEL.default_grid(count=12), curves.combined_risk,
                           curves.cdf.at)

    def test_d_nondecreasing(self):
        lil = lil_quantities(make_plugin_context(sample_lbrc(MODEL, 2000, seed=42), GRID))
        assert np.all(np.diff(lil.d) >= 0)

    def test_d_matches_quadrature_at_median(self):
        # the plugin d estimates the population integral of rho over the window
        t_med = MODEL.quantile(0.5)
        grid = EvalGrid(np.array([GRID.lower, t_med]), t_med)
        lil = lil_quantities(make_plugin_context(sample_lbrc(MODEL, 20000, seed=43), grid))
        ref = integrate.quad(MODEL.influence_weight, GRID.lower, t_med, limit=300)[0]
        assert lil.d[-1] == pytest.approx(ref, rel=0.1)

    def test_v_conventions(self):
        ctx = make_plugin_context(sample_lbrc(MODEL, 500, seed=44), GRID)
        lil = lil_quantities(ctx)
        f = ctx.curves.cdf.at(GRID.points)
        assert np.array_equal(lil.v, np.sqrt(np.clip(1.0 - f, 0.0, 1.0) * lil.d))

    def test_plugin_lil_smoke(self):
        d = sample_lbrc(MODEL, 500, seed=40)
        lil = lil_quantities(make_plugin_context(d, GRID))
        assert np.all(np.diff(lil.d) >= 0)
        assert np.all(lil.v >= 0)

    def test_rejects_oracle_context(self):
        with pytest.raises(ValueError, match="plugin context"):
            lil_quantities(CTX)


class TestPluginVariance:
    def test_degenerate_dataset_zero_variance(self):
        d = Dataset([1.0] * 6, [0.5] * 6, [1] * 6)
        grid = EvalGrid.of_points([1.5])
        assert plugin_variance(make_plugin_context(d, grid))[0] == pytest.approx(0.0, abs=1e-20)

    def test_variance_halves_when_n_doubles(self):
        t_med = MODEL.quantile(0.5)
        grid = EvalGrid.of_points([t_med])
        means = []
        for si, n in enumerate((500, 1000)):
            vals = [
                plugin_variance(make_plugin_context(
                    sample_lbrc(MODEL, n, np.random.SeedSequence(3, spawn_key=(si, r))), grid
                ))[0]
                for r in range(60)
            ]
            means.append(np.mean(vals))
        ratio = means[1] / means[0]
        assert 0.4 <= ratio <= 0.6

    def test_refuses_oracle_context(self):
        with pytest.raises(ValueError):
            plugin_variance(CTX)

    def test_nonnegative_over_grid(self):
        d = sample_lbrc(MODEL, 300, seed=8)
        assert np.all(plugin_variance(make_plugin_context(d, GRID)) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nonnegative_and_zero_where_the_cdf_is_one(self, data):
        # small samples full of ties: shared entry, residual and total times,
        # samples whose rows are all one event, and n = 1
        n = data.draw(st.integers(1, 40))
        times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
        if data.draw(st.booleans()):
            a, v = data.draw(times), data.draw(times)
            d = Dataset([a] * n, [v] * n, [1] * n)
        else:
            rows = st.tuples(times, times, st.sampled_from([0, 1]))
            d = Dataset(*zip(*data.draw(st.lists(rows, min_size=n, max_size=n))))
        # every positive total time, and a point past the last one
        grid = EvalGrid.of_points(np.union1d(d.y[d.y > 0], d.y.max() + 1.0))
        ctx = make_plugin_context(d, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            var = plugin_variance(ctx)
        assert np.all(var >= 0)
        assert np.all(var[ctx.curves.cdf.at(grid.points) == 1.0] == 0.0)

    def test_matches_finite_difference_derivative(self):
        # n * plugin_variance is the variance over subjects of the derivative
        # of the reported CDF, so it matches the variance of the replicated
        # finite differences, with an error that shrinks as K grows
        d, times, grid = fd_sample()
        target = d.n * plugin_variance(make_plugin_context(d, grid))
        errors = []
        for copies in (500, 2000):
            fd_cdf = replicated_derivatives(d, times, copies)[2]
            errors.append(np.abs(target / fd_cdf.var(axis=1) - 1.0).max())
        assert errors[1] <= 2e-3
        assert errors[1] < errors[0]

    def test_per_subject_matches_finite_difference(self):
        d, times, grid = fd_sample()
        ctx = make_plugin_context(d, grid)
        phi, psi1, psi2 = subject_influence(ctx, d.a, d.v, d.delta, times)
        # the hazard terms carry the product-limit gain, so psi1 + psi2 is the
        # influence of -log(1 - F)
        fd_log_sa, fd_log_surv, _ = replicated_derivatives(d, times, 2000)
        assert np.abs(phi - fd_log_sa).max() <= 2e-3
        assert np.abs(-(psi1 + psi2) - fd_log_surv).max() <= 2e-3

    def test_clamped_last_event_is_finite(self):
        d = sample_lbrc(MODEL, 30, seed=0)
        grid = EvalGrid.of_points(np.unique(d.y[d.delta == 1]))
        ctx = make_plugin_context(d, grid)
        # the last event has a unit hazard jump, and the last pooled factor
        # of the entry-survival fit is 0
        assert ctx.curves.hazard_steps[0][-1] == 1.0
        emp = ctx.curves.empirical
        assert emp.pooled_jumps[-1] == emp.pooled_at_risk_counts[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            var = plugin_variance(make_plugin_context(d, grid))
        assert np.all(np.isfinite(var))
        assert np.all(var >= 0)
        assert var[-1] == 0.0

    def test_all_censored_sample(self):
        # no event times: nothing may be read from the empty event tables
        d = TestContexts.SAMPLES["all-censored"]
        ctx = make_plugin_context(d, EvalGrid.of_points([0.25, 0.5, 1.0, 1.5]))
        zeros = np.zeros((4, 3))
        assert ctx.cdf_gain.size == 0
        phi, psi1, psi2 = subject_influence(ctx, d.a, d.v, d.delta, ctx.grid.points)
        assert np.array_equal(psi1, zeros) and np.array_equal(psi2, zeros)
        assert np.allclose(
            phi, [[0.0, 0.0, 0.0], [-0.6, 0.3, 0.3], [-0.6, 0.8, -0.2], [-0.6, 0.8, -0.2]]
        )
        assert np.array_equal(plugin_variance(ctx), np.zeros(4))

    @pytest.mark.parametrize("case", ["weibull-jumps", "n=1", "all-tied", "width-1", "width-7"])
    def test_blocks_match_one_shot(self, case, monkeypatch):
        # the chunks merge their moments in an order of their own, so the
        # result agrees with one pass over the whole sample to VARIANCE_RTOL
        # of the largest variance; rows that are 0 there stay exactly 0
        if case == "weibull-jumps":
            ctx = weibull_jumps_context()
            width = influence._BLOCK_VALUES // ctx.grid.points.size
            assert width == 22  # 2,964 times
            assert 1 < width < ctx.dataset.n
            assert ctx.dataset.n % width != 0  # the last chunk is ragged
            assert ctx.curves.hazard_steps[0][-1] == 1.0  # the clamped last event
        elif case == "n=1":
            ctx = make_plugin_context(Dataset([0.7], [0.4], [1]), EvalGrid.of_points([1.1]))
        elif case == "all-tied":
            d = Dataset([1.0] * 6, [0.5] * 6, [1] * 6)
            ctx = make_plugin_context(d, EvalGrid.of_points([0.5, 1.0, 1.5]))
        else:
            width = int(case.split("-")[1])
            monkeypatch.setattr(influence, "_BLOCK_VALUES", width * GRID.points.size)
            ctx = make_plugin_context(sample_lbrc(MODEL, 300, seed=8), GRID)
        got = plugin_variance(ctx)
        want = oracles.plugin_variance_one_shot(ctx)
        assert np.abs(got - want).max() <= VARIANCE_RTOL * want.max()
        assert np.array_equal(got[want == 0], want[want == 0])
        if case == "weibull-jumps":
            assert want[-1] == got[-1] == 0.0

    def test_memory_bounded_by_block(self):
        # one call over all 2,964 event times and 4,000 subjects would hold
        # three (times, n) arrays of 95 MB each; a chunk holds 512 KiB arrays
        ctx = weibull_jumps_context()
        tracemalloc.start()
        try:
            plugin_variance(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_grid_reads_built_once_per_context(self, monkeypatch):
        # every chunk shares the event prefix sums and their values at the
        # grid points; they are built on the first chunk and kept
        calls = []
        event_reads = influence._event_reads
        monkeypatch.setattr(
            influence, "_event_reads", lambda *args: calls.append(args) or event_reads(*args)
        )
        ctx = weibull_jumps_context()
        assert influence._BLOCK_VALUES // ctx.grid.points.size < ctx.dataset.n  # several chunks
        first = plugin_variance(ctx)
        assert len(calls) == 1
        assert np.array_equal(plugin_variance(ctx), first)
        assert len(calls) == 1
        # a copy of the grid is not the context's own: its reads are built afresh
        d = ctx.dataset
        subject_influence(ctx, d.a, d.v, d.delta, ctx.grid.points.copy())
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["edge-cases", "weibull-jumps", "all-censored"])
    def test_grid_reads_match_fresh_reads(self, case):
        # at the context's own grid the cached reads give the bits that reads
        # built afresh give
        if case == "weibull-jumps":
            ctx = weibull_jumps_context()
        else:
            d, times = (edge_case_sample() if case == "edge-cases" else
                        (TestContexts.SAMPLES[case], np.array([0.25, 0.5, 1.0, 1.5])))
            ctx = make_plugin_context(d, EvalGrid.of_points(times))
        d, points = ctx.dataset, ctx.grid.points
        for rows in (slice(0, 1), slice(1, 8), slice(0, 300)):
            args = (d.a[rows], d.v[rows], d.delta[rows])
            cached = subject_influence(ctx, *args, points)
            fresh = subject_influence(ctx, *args, points.copy())
            for got, want in zip(cached, fresh):
                assert np.array_equal(got, want)

    def test_permuted_sample_permutes_columns(self):
        d, times = edge_case_sample()
        ctx = make_plugin_context(d, EvalGrid.of_points(times))
        perm = np.random.default_rng(3).permutation(d.n)
        full = subject_influence(ctx, d.a, d.v, d.delta, times)
        permuted = subject_influence(ctx, d.a[perm], d.v[perm], d.delta[perm], times)
        for whole, part in zip(full, permuted):
            assert np.array_equal(whole[:, perm], part)

    @pytest.mark.parametrize("case", ["edge-cases", "all-censored", "n=1"])
    def test_coefficient_form_matches_rowwise(self, case):
        # the package evaluates every time at once from per-subject
        # coefficients; the reference reads the prefix sums row by row
        if case == "edge-cases":
            d, times = edge_case_sample()
        else:
            d = TestContexts.SAMPLES[case]
            times = np.array([0.25, 0.5, 0.7, 1.0, 1.1, 1.5])
        ctx = make_plugin_context(d, EvalGrid.of_points(times))
        got = subject_influence(ctx, d.a, d.v, d.delta, times)
        want = oracles.plugin_subject_influence_rowwise(
            ctx, d.a, d.v, d.delta, times, event_gain=ctx.cdf_gain
        )
        for name, x, ref in zip(("phi", "psi1", "psi2"), got, want):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max(), name



class TestPluginRelations:
    """Relations that the fitted CDF and its plugin variance keep exactly, or
    to rounding, on a 500-row sample and its event-time or 50-point grid."""

    @staticmethod
    def fitted(d, points):
        ctx = make_plugin_context(d, EvalGrid.of_points(points))
        return ctx.curves.cdf.at(ctx.grid.points), plugin_variance(ctx)

    @pytest.fixture(
        params=[
            (family, grid) for family in ("exponential", "weibull") for grid in ("jumps", "n:50")
        ],
        ids="-".join,
    )
    def sample(self, request):
        family, grid = request.param
        model = MODEL if family == "exponential" else WeibullModel(censor_rate=0.5, shape=1.5)
        d = sample_lbrc(model, 500, seed=21)
        events = np.unique(d.y[d.delta == 1])
        points = events if grid == "jumps" else np.linspace(events.min(), events.max(), 50)
        return d, points

    def test_power_of_two_time_unit(self, sample):
        d, points = sample
        cdf, var = self.fitted(d, points)
        for k in (20, -30, 60):
            unit = 2.0**k
            got = self.fitted(Dataset(d.a * unit, d.v * unit, d.delta), points * unit)
            assert np.array_equal(got[0], cdf) and np.array_equal(got[1], var), k

    def test_row_permutation(self, sample):
        d, points = sample
        cdf, var = self.fitted(d, points)
        perm = np.random.default_rng(4).permutation(d.n)
        got_cdf, got_var = self.fitted(Dataset(d.a[perm], d.v[perm], d.delta[perm]), points)
        assert np.array_equal(got_cdf, cdf)
        assert np.abs(got_var - var).max() <= 1e-13 * var.max()

    def test_every_row_duplicated(self, sample):
        # the empirical measure is unchanged and n doubles, so the variance
        # halves
        d, points = sample
        cdf, var = self.fitted(d, points)
        got_cdf, got_var = self.fitted(
            Dataset(np.tile(d.a, 2), np.tile(d.v, 2), np.tile(d.delta, 2)), points
        )
        assert np.array_equal(got_cdf, cdf)
        assert np.abs(2.0 * got_var - var).max() <= 1e-13 * var.max()


class TestAssumptionDiagnostic:
    def test_unit_risk_uniform_is_one(self):
        ctx = unit_risk_uniform_context()
        assert assumption3_diagnostic(ctx, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_matches_independent_quadrature(self):
        b90 = oracles.observed_time_quantile(MODEL, 0.90)
        val = assumption3_diagnostic(CTX, b90)
        # independent check: fine fixed-panel quadrature of the defining ratio
        edges = np.linspace(GRID.lower, b90, 4001)
        ref = float(
            np.sum(
                panel_integrals(
                    lambda u: MODEL.event_subdist_density(u) / MODEL.risk(u) ** 3, edges
                )
            )
        )
        assert val == pytest.approx(ref, abs=1e-6)

    def test_monotone_in_b(self):
        vals = [assumption3_diagnostic(CTX, b) for b in (1.0, 1.5, 2.0, GRID.b)]
        assert np.all(np.diff(vals) > 0)

    def test_cap_refusal(self):
        b999 = oracles.observed_time_quantile(MODEL, 0.999)
        with pytest.raises(WindowError):
            assumption3_diagnostic(CTX, b999)

    def test_plugin_mode(self):
        # the diagnostic is a population integral; a plugin context is refused
        ctx = make_plugin_context(sample_lbrc(MODEL, 200, seed=15), GRID)
        with pytest.raises(ValueError, match="oracle context"):
            assumption3_diagnostic(ctx, GRID.b)


class TestErrorPaths:
    def test_zero_entry_delay_rejected_in_oracle_mode(self):
        with pytest.raises(ComputeError):
            subject_influence(CTX, [0.0], [1.0], [1], [0.5])

    def test_zero_residual_with_event_rejected(self):
        with pytest.raises(ComputeError):
            subject_influence(CTX, [0.5], [0.0], [1], [0.5])

    @pytest.mark.parametrize("a, v, delta", [([0.0], [1.0], [1]), ([0.5], [0.0], [1])])
    def test_divergent_sample_rejected_by_means(self, a, v, delta):
        d = sample_lbrc(MODEL, 300, seed=5)
        d = Dataset(np.append(d.a, a), np.append(d.v, v), np.append(d.delta, delta))
        with pytest.raises(ComputeError):
            influence_means(CTX, d, GRID.points)
        for op in (residual_hazard, residual_cdf, residual_entry_survival):
            with pytest.raises(ComputeError):
                op(d, CTX, GRID)

    def test_zero_residual_censored_is_fine(self):
        phi, psi1, psi2 = subject_influence(CTX, [0.5], [0.0], [0], [1.0])
        assert np.isfinite(phi).all() and np.isfinite(psi1).all() and np.isfinite(psi2).all()

    def test_time_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            subject_influence(CTX, [0.5], [1.0], [1], [GRID.b + 1.0])

    @pytest.mark.parametrize(
        "bad, message", [(GRID.b + 1.0, "beyond the context window"), (-1e-3, "below 0")]
    )
    def test_times_outside_the_window_refused_alike(self, bad, message):
        # both entry points, in both modes, refuse a time the same way, and
        # not with the message of a table query
        d = sample_lbrc(MODEL, 50, seed=4)
        plugin = make_plugin_context(d, GRID)
        times = [0.5, bad, 1.0]
        for ctx in (CTX, plugin):
            with pytest.raises(ValueError, match=message):
                subject_influence(ctx, d.a, d.v, d.delta, times)
        for want in ("phi", "both"):
            with pytest.raises(ValueError, match=message):
                influence_means(CTX, d, times, want=want)

    def test_no_times_give_empty_means(self):
        d = sample_lbrc(MODEL, 50, seed=4)
        for want, keys in (("phi", ["mean_phi"]), ("both", ["mean_phi", "mean_psi1", "mean_psi2"])):
            got = influence_means(CTX, d, [], want=want)
            assert sorted(got) == keys
            assert all(x.shape == (0,) and x.dtype == float for x in got.values())
        assert all(x.shape == (0, d.n) for x in subject_influence(CTX, d.a, d.v, d.delta, []))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        # every comparison with NaN is false, so NaN slips past a check
        # against the window end; -inf lies below the window
        times = [0.5, bad, 1.0]
        d = sample_lbrc(MODEL, 50, seed=4)
        plugin = make_plugin_context(d, GRID)
        for ctx in (CTX, plugin):
            with pytest.raises(ValueError, match="finite"):
                subject_influence(ctx, d.a, d.v, d.delta, times)
        with pytest.raises(ValueError, match="finite"):
            influence_means(CTX, d, times)

    def test_window_slack_scales_with_the_time_unit(self):
        # at a 2^-60 unit an absolute slack of 1e-12 spans some 1e6 windows,
        # and the clipped reads of a time beyond b are those at b
        unit = 2.0**-60
        model = ExponentialModel(censor_rate=0.5 / unit, rate=1.0 / unit)
        ctx = make_oracle_context(model, model.default_grid())
        b = ctx.grid.b
        with pytest.raises(ValueError, match="beyond the context window"):
            subject_influence(ctx, [0.5 * b], [0.25 * b], [1], [2.0 * b])
        for table in ctx.tables:
            with pytest.raises(ValueError, match="outside domain"):
                table.query(2.0 * b / ctx.unit)
            with pytest.raises(ValueError, match="outside domain"):
                table.query(-0.5 * b / ctx.unit)
            assert table.query(b / ctx.unit) == table.cum[-1]
        phi, _, _ = subject_influence(ctx, [0.5 * b], [0.25 * b], [1], [b])
        assert np.isfinite(phi).all()

    def test_plugin_rejects_points_outside_the_sample(self):
        d = sample_lbrc(MODEL, 50, seed=4)
        ctx = make_plugin_context(d, GRID)
        i, j = np.flatnonzero(d.delta == 1)[:2]
        outside = [
            ([d.a[i] + 1e-3], [d.v[i]], [1]),  # entry delay off the pooled mass
            ([d.a[i]], [d.v[i] + 1e-3], [1]),  # uncensored residual off it
            ([d.a[i]], [d.v[j]], [1]),  # both on it, exit not an event time
        ]
        for a, v, delta in outside:
            with pytest.raises(ValueError, match="data point"):
                subject_influence(ctx, a, v, delta, [1.0])
        # a censored residual time may fall anywhere
        subject_influence(ctx, [d.a[i]], [d.v[i] + 1e-3], [0], [1.0])
