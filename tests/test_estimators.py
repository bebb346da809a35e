from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lbrc import empirical, estimators
from lbrc.data import Dataset
from lbrc.empirical import build_empirical
from lbrc.estimators import (
    FittedCurves,
    classic_cumulative_hazard,
    combined_cumulative_hazard,
    estimate_combined_risk,
    estimate_entry_survival,
    exit_order,
    fit,
    hazard_steps,
    huang_qin_cdf,
    pooled_entry_cumhaz,
    safeguarded_cdf,
    tjw_product_limit,
)
from lbrc.stepfun import StepFunction
from test_empirical import assert_same_step, probe_points, random_dataset, special_datasets


def named_curves(curves):
    """The fitted curve of each name in ``oracles.ALL_ESTIMATOR_ORACLES``;
    ``fit`` keeps no classic cumulative hazard, which is read from its function."""
    return {
        name: classic_cumulative_hazard(curves.empirical) if name == "classic_cumhaz"
        else getattr(curves, name)
        for name in oracles.ALL_ESTIMATOR_ORACLES
    }


class TestHandExamples:
    """The worked one-observation dataset (a=1, v=2, event observed)."""

    def setup_method(self):
        self.d = Dataset([1.0], [2.0], [1])
        self.curves = fit(self.d)

    def test_entry_survival_three_regimes(self):
        s = self.curves.entry_survival
        assert s.at(0.5) == 1.0
        assert s.at(1.0) == 0.5
        assert s.at(1.9) == 0.5
        assert s.at(2.0) == 0.0
        assert s.at(10.0) == 0.0

    def test_entry_survival_censored_variant(self):
        d = Dataset([1.0], [2.0], [0])
        s = fit(d).entry_survival
        assert s.at(0.5) == 1.0
        assert s.at(1.0) == 0.5
        assert s.at(5.0) == 0.5

    def test_combined_risk(self):
        r = self.curves.combined_risk
        assert r(1.5) == 0.5
        assert r(3.0) == 1.0
        assert r(10.0) == 0.0

    def test_combined_cumhaz_is_indicator(self):
        lam = self.curves.combined_cumhaz
        assert lam.at(2.999) == 0.0
        assert lam.at(3.0) == 1.0
        assert lam.at(8.0) == 1.0

    def test_classic_cumhaz(self):
        assert classic_cumulative_hazard(self.curves.empirical).at(3.0) == 1.0

    def test_safeguarded_cdf(self):
        assert self.curves.cdf_safeguarded.at(3.0) == 0.5
        assert self.curves.cdf_safeguarded.at(2.9) == 0.0

    def test_entry_cumhaz(self):
        lam_a = self.curves.entry_cumhaz
        assert lam_a.at(1.0) == 0.5
        assert lam_a.at(2.0) == 1.5


class TestProductLimitFromHazard:
    """``huang_qin_cdf`` is the product-limit map of the hazard jumps; with a
    unit risk each jump is the event fraction at its time."""

    @staticmethod
    def cdf(d):
        emp = build_empirical(d)
        return huang_qin_cdf(emp, hazard_steps(emp, StepFunction.constant(1.0).at))

    def test_single_unit_jump_gives_indicator(self):
        f = self.cdf(Dataset([1.0], [1.0], [1]))
        assert f.at(1.9) == 0.0
        assert f.at(2.0) == 1.0

    def test_zero_hazard_gives_zero(self):
        f = self.cdf(Dataset([1.0, 0.5], [1.0, 2.0], [0, 0]))
        assert f.at(5.0) == 0.0

    def test_two_half_jumps(self):
        f = self.cdf(Dataset([0.5, 1.0], [0.5, 1.0], [1, 1]))
        assert f.at(2.0) == pytest.approx(1.0 - 0.25)


class TestReductions:
    def test_tjw_no_truncation_no_censoring_is_ecdf(self):
        d = Dataset([0.0, 0.0], [1.0, 2.0], [1, 1])
        f = tjw_product_limit(d, exit_order(d))
        assert f.at(1.0) == 0.5
        assert f.at(2.0) == 1.0

    def test_tjw_single_censored_is_zero(self):
        d = Dataset([0.0], [1.0], [0])
        assert tjw_product_limit(d, exit_order(d)).at(5.0) == 0.0

    def test_tjw_handles_trailing_censor(self):
        d = Dataset([0.0, 0.0], [1.0, 2.0], [1, 0])
        f = tjw_product_limit(d, exit_order(d))
        assert f.at(1.0) == 0.5
        assert f.at(2.0) == 0.5

    @pytest.mark.parametrize("seed", range(20))
    def test_tjw_equals_kaplan_meier_without_truncation(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 101))
        times = rng.uniform(0.1, 5.0, n)
        events = (rng.random(n) > 0.35).astype(int)
        d = Dataset(np.zeros(n), times, events)
        f = tjw_product_limit(d, exit_order(d))
        for x in np.concatenate([times, [0.0, 6.0], rng.uniform(0, 5, 10)]):
            assert f.at(x) == oracles.kaplan_meier_cdf_at(times, events, x)

    @pytest.mark.parametrize("seed", range(20))
    def test_tjw_equals_lynden_bell_without_censoring(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 101))
        a = rng.uniform(0.05, 2.0, n)
        y = a + rng.uniform(0.01, 3.0, n)
        d = Dataset(a, y - a, np.ones(n, dtype=int))
        f = tjw_product_limit(d, exit_order(d))
        for x in np.concatenate([y, [0.0, 10.0], rng.uniform(0, 5, 10)]):
            assert f.at(x) == oracles.lynden_bell_cdf_at(a, y, x)

    @pytest.mark.parametrize("seed", range(8))
    def test_classic_cumhaz_equals_nelson_aalen_without_truncation(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 60))
        times = rng.uniform(0.1, 5.0, n)
        events = (rng.random(n) > 0.3).astype(int)
        d = Dataset(np.zeros(n), times, events)
        lam = classic_cumulative_hazard(build_empirical(d))
        for x in np.concatenate([times, rng.uniform(0, 6, 10)]):
            assert lam.at(x) == pytest.approx(
                oracles.nelson_aalen_at(times, events, x), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_entry_survival_matches_pooled_kaplan_meier(self, seed):
        # all entry delays and residuals distinct, all events observed: the
        # pooled fit is a plain Kaplan-Meier on the stacked 2n-point sample
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(1, 40))
        a = rng.uniform(0.05, 2.0, n)
        v = rng.uniform(2.1, 4.0, n)
        d = Dataset(a, v, np.ones(n, dtype=int))
        s = estimate_entry_survival(build_empirical(d))
        pooled = np.concatenate([a, v])
        for x in np.concatenate([pooled, rng.uniform(0, 5, 10)]):
            assert s.at(x) == oracles.pooled_kaplan_meier_at(pooled, x)


@pytest.mark.parametrize("seed", range(15))
def test_brute_force_equality_small_n(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(1, 11))
    d = random_dataset(rng, n)
    curves = named_curves(fit(d))
    for t in probe_points(d):
        for name, oracle in oracles.ALL_ESTIMATOR_ORACLES.items():
            curve = curves[name]
            got = curve(t) if name == "combined_risk" else curve.at(t)
            want = oracle(d, float(t))
            assert got == pytest.approx(want, abs=1e-12), (name, t)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1)),
        min_size=1,
        max_size=120,
    )
)
@example([(3, 2, 1)])
@example([(2, 4, 1), (2, 4, 0)] * 20)
def test_exit_order_is_the_stable_argsort(rows):
    # a, v and delta on a coarse lattice: most exit times are tied; the
    # examples are one subject and a sample whose exit times all tie
    a, v, delta = (np.array(col) for col in zip(*rows))
    d = Dataset(0.5 * a, 0.25 * v, delta)
    assert np.array_equal(exit_order(d), np.argsort(d.y, kind="stable"))


@pytest.mark.parametrize("seed", range(6))
def test_tie_heavy_product_limits_match_oracles(seed):
    # times on a 0.1 lattice, with events and censorings mixed within ties:
    # the curve at a tie is the product after the tie's last subject, and the
    # TJW factors come from integer counts, so that curve equals the oracle
    # to the bit
    rng = np.random.default_rng(1300 + seed)
    n = int(rng.integers(30, 70))
    a, v = (np.round(rng.uniform(0.0, 1.0, n), 1) for _ in range(2))
    d = Dataset(a, v, (rng.random(n) > 0.4).astype(int))
    mixed = [t for t in np.unique(d.y) if set(d.delta[d.y == t]) == {0, 1}]
    assert len(mixed) >= 3
    curves = fit(d)
    for t in probe_points(d):
        assert curves.tjw_cdf.at(t) == oracles.tjw_cdf_at(d, float(t)), t
        assert curves.cdf_safeguarded.at(t) == pytest.approx(
            oracles.safeguarded_cdf_at(d, float(t)), abs=1e-12
        ), t


@pytest.mark.parametrize("seed", range(8))
def test_shape_invariants(seed):
    rng = np.random.default_rng(900 + seed)
    d = random_dataset(rng, int(rng.integers(2, 60)))
    curves = fit(d)
    pts = probe_points(d)
    for name in ("entry_survival",):
        vals = getattr(curves, name).at(pts)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))
    for name in ("tjw_cdf", "cdf", "cdf_safeguarded"):
        vals = getattr(curves, name).at(pts)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0) & (vals <= 1))
    for lam in (classic_cumulative_hazard(curves.empirical), curves.combined_cumhaz,
                curves.entry_cumhaz):
        vals = lam.at(pts)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] >= 0


def test_two_cdf_constructions_coincide():
    rng = np.random.default_rng(77)
    for _ in range(10):
        d = random_dataset(rng, int(rng.integers(1, 40)))
        emp = build_empirical(d)
        steps = hazard_steps(emp, estimate_combined_risk(d, estimate_entry_survival(emp)))
        direct = huang_qin_cdf(emp, steps)
        # the product-limit map of the running hazard sum, from its differences
        lam = combined_cumulative_hazard(emp, steps)
        factors = np.clip(1.0 - np.diff(lam.values, prepend=0.0), 0.0, 1.0)
        via_hazard = StepFunction(lam.jump_times, 1.0 - np.cumprod(factors), 0.0)
        pts = probe_points(d)
        assert np.allclose(direct.at(pts), via_hazard.at(pts), atol=1e-13)


def test_entry_cumhaz_exponential_map_approaches_entry_survival():
    # exp(-pooled entry hazard) and the pooled product-limit survival differ
    # only by second order in the jump sizes
    from lbrc.simulate import sample_lbrc
    from lbrc.truth import ExponentialModel

    model = ExponentialModel(censor_rate=0.5, rate=1.0)
    gaps = []
    for n in (200, 3200):
        d = sample_lbrc(model, n, seed=11)
        curves = fit(d)
        pts = model.quantile(np.linspace(0.05, 0.9, 40))
        gap = np.abs(
            np.exp(-curves.entry_cumhaz.at(pts)) - curves.entry_survival.at(pts)
        ).max()
        gaps.append(gap)
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.01


def test_safeguarded_close_to_plain_cdf():
    from lbrc.simulate import sample_lbrc
    from lbrc.truth import ExponentialModel

    model = ExponentialModel(censor_rate=0.5, rate=1.0)
    d = sample_lbrc(model, 500, seed=3)
    curves = fit(d)
    b = model.quantile(0.9)
    pts = np.linspace(0.05, b, 50)
    gap = np.abs(curves.cdf.at(pts) - curves.cdf_safeguarded.at(pts)).max()
    assert gap < 0.05


def direct_fit(d):
    """Every field of ``fit(d)``, each estimator called directly."""
    emp = build_empirical(d)
    entry = estimate_entry_survival(emp)
    risk = estimate_combined_risk(d, entry)
    steps = hazard_steps(emp, risk)
    order = exit_order(d)
    return {
        "entry_survival": entry,
        "combined_risk": risk,
        "hazard_steps": steps,
        "exit_order": order,
        "combined_cumhaz": combined_cumulative_hazard(emp, steps),
        "tjw_cdf": tjw_product_limit(d, order),
        "cdf": huang_qin_cdf(emp, steps),
        "cdf_safeguarded": safeguarded_cdf(d, risk, order),
        "entry_cumhaz": pooled_entry_cumhaz(emp),
    }


@pytest.mark.parametrize("case", range(10))
def test_fit_fields_equal_direct_estimators(case):
    rng = np.random.default_rng(500 + case)
    samples = special_datasets() if case == 0 else [random_dataset(rng, int(rng.integers(1, 60)))]
    for d in samples:
        curves = fit(d)
        want = direct_fit(d)
        assert set(want) == {
            name for name, attr in vars(FittedCurves).items() if isinstance(attr, cached_property)
        }
        # read in reverse order, so each curve is first built by a later one
        for name in reversed(list(want)):
            if name == "combined_risk":
                # the pooled risk is a function of t: compare it at every
                # a, v and y and at the midpoints between them
                cuts = np.unique(np.concatenate([d.a, d.v, d.y]))
                pts = np.concatenate([cuts, (cuts[:-1] + cuts[1:]) / 2])
                assert np.array_equal(curves.combined_risk(pts), want[name](pts)), name
            elif name == "hazard_steps":
                for got, ref in zip(curves.hazard_steps, want[name], strict=True):
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), name
            elif name == "exit_order":
                assert np.array_equal(curves.exit_order, want[name]), name
            else:
                assert_same_step(getattr(curves, name), want[name], name)


def test_fit_curves_are_kept_and_read_only():
    curves = fit(Dataset([1.0, 2.0], [5.0, 6.0], [1, 0]))
    assert curves.cdf is curves.cdf
    with pytest.raises(FrozenInstanceError):
        curves.cdf = curves.tjw_cdf


def test_rn2_replication_builds_only_what_it_reads(monkeypatch):
    # one replication of the Rn2 rate ladder reads the CDF and the count
    # tables, so no other estimator or empirical curve may be built
    from lbrc.influence import make_oracle_context, residual_cdf
    from lbrc.simulate import sample_lbrc
    from lbrc.truth import ExponentialModel

    model = ExponentialModel(censor_rate=0.5, rate=1.0)
    grid = model.default_grid()
    d = sample_lbrc(model, 300, seed=5)
    ctx = make_oracle_context(model, grid)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    for module, name in (
        (estimators, "tjw_product_limit"),
        (estimators, "safeguarded_cdf"),
        (estimators, "classic_cumulative_hazard"),
        (estimators, "pooled_entry_cumhaz"),
        (empirical, "classic_at_risk"),
        (estimators, "classic_at_risk"),
    ):
        monkeypatch.setattr(module, name, refuse(name))
    rep = residual_cdf(d, ctx, grid, fit(d))
    assert np.isfinite(rep.residual_sup)
