from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest

import oracles
from lbrc.data import Dataset
from lbrc.empirical import (
    _cdf_step,
    _geq_count_step,
    build_empirical,
    classic_at_risk,
    event_cdf,
    exit_survival,
)


def random_dataset(rng, n, tie_prob=0.3, censor_prob=0.3, allow_zero_v=True):
    """Random small dataset; with some probability values land on a coarse
    lattice so ties (including a-vs-v collisions) actually occur."""
    if rng.random() < tie_prob:
        a = rng.integers(1, 8, n) * 0.25
        v = rng.integers(0 if allow_zero_v else 1, 8, n) * 0.25
    else:
        a = rng.uniform(0.05, 2.0, n)
        v = rng.uniform(0.0, 2.0, n)
    delta = (rng.random(n) > censor_prob).astype(int)
    return Dataset(a, v, delta)


def special_datasets():
    """One subject, all times tied, and no observed event."""
    return [
        Dataset([1.0], [2.0], [1]),
        Dataset([1.0], [2.0], [0]),
        Dataset([1.0] * 6, [0.5] * 6, [1] * 6),
        Dataset([0.5, 1.0, 1.0, 2.0], [1.0, 0.5, 0.0, 1.0], [0, 0, 0, 0]),
    ]


def assert_same_step(got, want, label):
    """Bit-for-bit equality of two step functions."""
    assert np.array_equal(got.jump_times, want.jump_times), label
    assert np.array_equal(got.values, want.values), label
    assert np.array_equal(got.initial_value, want.initial_value), label
    assert np.array_equal(got.at_values, want.at_values), label


def probe_points(d):
    vals = np.concatenate([d.a, d.v, d.y])
    pts = np.unique(np.concatenate([vals, vals + 0.1, vals - 0.1, [0.0, vals.max() + 5.0]]))
    return pts[pts >= 0]


def test_event_cdf_single_event():
    d = Dataset([1.0], [2.0], [1])
    nb = event_cdf(d)
    assert nb.at(2.9) == 0.0
    assert nb.at(3.0) == 1.0


def test_event_cdf_single_censored():
    d = Dataset([1.0], [2.0], [0])
    nb = event_cdf(d)
    assert nb.at(100.0) == 0.0


def test_event_cdf_two_events():
    d = Dataset([1.0, 1.0], [1.0, 3.0], [1, 1])
    nb = event_cdf(d)
    assert nb.at(2.0) == 0.5
    assert nb.at(4.0) == 1.0


def test_at_risk_closed_interval():
    d = Dataset([1.0], [2.0], [1])
    rb = classic_at_risk(d)
    assert rb.at(0.5) == 0.0
    assert rb.at(1.0) == 1.0
    assert rb.at(3.0) == 1.0
    assert rb.at(3.1) == 0.0


def test_at_risk_two_subjects():
    d = Dataset([1.0, 2.0], [2.0, 3.0], [1, 1])
    rb = classic_at_risk(d)
    assert rb.at(2.5) == 1.0


def test_at_risk_vanishes_beyond_exits():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 12)
    rb = classic_at_risk(d)
    assert rb.at(float(d.y.max()) + 1.0) == 0.0


def test_pooled_counts_one_observation():
    d = Dataset([1.0], [2.0], [1])
    e = build_empirical(d)
    assert e.pooled_cdf.at(1.0) == 1.0
    assert e.pooled_cdf.at(2.0) == 2.0
    assert e.pooled_at_risk.at(1.0) == 2.0
    assert e.pooled_at_risk.at(2.0) == 1.0
    assert e.pooled_at_risk.at(2.1) == 0.0


def test_pooled_counts_censored_residual():
    d = Dataset([1.0], [2.0], [0])
    e = build_empirical(d)
    assert e.residual_event_cdf.at(10.0) == 0.0
    assert e.residual_at_risk.at(2.0) == 1.0


def test_pooled_at_risk_mixed():
    d = Dataset([1.0, 2.0], [5.0, 6.0], [1, 1])
    e = build_empirical(d)
    assert e.pooled_at_risk.at(1.5) == pytest.approx(1.5)


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_equality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 51))
    d = random_dataset(rng, n)
    e = build_empirical(d)
    for t in probe_points(d):
        assert e.event_cdf.at(t) == pytest.approx(oracles.n_bar_at(d, t), abs=1e-12)
        assert e.at_risk.at(t) == pytest.approx(oracles.r_bar_at(d, t), abs=1e-12)
        assert e.pooled_cdf.at(t) == pytest.approx(oracles.q_tilde_at(d, t), abs=1e-12)
        assert e.pooled_at_risk.at(t) == pytest.approx(oracles.k_tilde_at(d, t), abs=1e-12)


@pytest.mark.parametrize("case", range(6))
def test_count_tables_brute_force(case):
    rng = np.random.default_rng(500 + case)
    samples = special_datasets() if case == 0 else [random_dataset(rng, int(rng.integers(1, 60)))]
    for d in samples:
        e = build_empirical(d)
        mass = sorted(oracles._pooled_mass_points(d))
        assert np.array_equal(e.pooled_times, mass)
        for s, jumps, at_risk in zip(mass, e.pooled_jumps, e.pooled_at_risk_counts):
            assert jumps == sum(1 for i in range(d.n) if d.a[i] == s) + sum(
                1 for i in range(d.n) if d.delta[i] == 1 and d.v[i] == s
            )
            assert at_risk == sum(1 for i in range(d.n) if d.a[i] >= s) + sum(
                1 for i in range(d.n) if d.v[i] >= s
            )
        events = sorted({float(d.y[i]) for i in range(d.n) if d.delta[i] == 1})
        assert np.array_equal(e.event_times, events)
        assert list(e.event_counts) == [
            sum(1 for i in range(d.n) if d.delta[i] == 1 and d.y[i] == u) for u in events
        ]


@pytest.mark.parametrize("seed", range(6))
def test_monotonicity_and_bounds(seed):
    rng = np.random.default_rng(100 + seed)
    d = random_dataset(rng, int(rng.integers(2, 40)))
    e = build_empirical(d)
    pts = probe_points(d)
    q = e.pooled_cdf.at(pts)
    k = e.pooled_at_risk.at(pts)
    r = e.at_risk.at(pts)
    assert np.all(np.diff(q) >= -1e-15)
    assert np.all(np.diff(k) <= 1e-15)
    assert np.all((k >= 0) & (k <= 2))
    assert np.all((r >= -1e-15) & (r <= 1))
    # counting consistency: at risk can't exceed entered or still-present
    entered = e.entry_cdf.at(pts)
    present = e.exit_survival.at(pts)
    assert np.all(r <= entered + 1e-15)
    assert np.all(r <= present + 1e-15)


def test_totals():
    rng = np.random.default_rng(42)
    d = random_dataset(rng, 25, allow_zero_v=False)
    e = build_empirical(d)
    big = float(d.y.max()) + 10
    assert e.event_cdf.at(big) == pytest.approx(d.n_events / d.n)
    assert e.pooled_cdf.at(big) == pytest.approx(1.0 + d.n_events / d.n)
    tiny = 1e-12
    if d.a.min() > 0 and d.v.min() > 0:
        assert e.pooled_at_risk.at(tiny) == pytest.approx(2.0)


def direct_curves(d):
    """Every step-function field of ``build_empirical(d)``, built directly."""
    entry = _cdf_step(d.a, d.n)
    residual_event = _cdf_step(d.v[d.delta == 1], d.n)
    entry_risk = _geq_count_step(d.a, d.n)
    residual_risk = _geq_count_step(d.v, d.n)
    return {
        "event_cdf": event_cdf(d),
        "at_risk": classic_at_risk(d),
        "exit_survival": exit_survival(d),
        "entry_cdf": entry,
        "residual_event_cdf": residual_event,
        "pooled_cdf": entry.combine(residual_event, np.add),
        "entry_at_risk": entry_risk,
        "residual_at_risk": residual_risk,
        "pooled_at_risk": entry_risk.combine(residual_risk, np.add),
    }


@pytest.mark.parametrize("case", range(10))
def test_curves_equal_direct_construction(case):
    rng = np.random.default_rng(300 + case)
    samples = special_datasets() if case == 0 else [random_dataset(rng, int(rng.integers(1, 60)))]
    for d in samples:
        e = build_empirical(d)
        curves = direct_curves(d)
        assert set(curves) == {
            name for name, attr in vars(type(e)).items() if isinstance(attr, cached_property)
        }
        for name, want in curves.items():
            assert_same_step(getattr(e, name), want, name)


def test_curves_are_kept_and_read_only():
    e = build_empirical(Dataset([1.0, 2.0], [5.0, 6.0], [1, 0]))
    assert e.pooled_at_risk is e.pooled_at_risk
    with pytest.raises(FrozenInstanceError):
        e.pooled_at_risk = e.entry_at_risk
    with pytest.raises(FrozenInstanceError):
        e.pooled_times = e.event_times
