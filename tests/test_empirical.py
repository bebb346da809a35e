from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lbrc.data import Dataset
from lbrc.empirical import build_empirical, classic_at_risk, count_at_least, count_at_most
from lbrc.influence import make_plugin_context
from lbrc.stepfun import EvalGrid


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


def probe_points(d):
    vals = np.concatenate([d.a, d.v, d.y])
    pts = np.unique(np.concatenate([vals, vals + 0.1, vals - 0.1, [0.0, vals.max() + 5.0]]))
    return pts[pts >= 0]


def event_fraction(e):
    """The event-fraction curve N-bar at each distinct event time."""
    return np.cumsum(e.event_counts) / e.n


def test_event_cdf_single_event():
    e = build_empirical(Dataset([1.0], [2.0], [1]))
    assert e.event_times.tolist() == [3.0]
    assert event_fraction(e).tolist() == [1.0]


def test_event_cdf_single_censored():
    e = build_empirical(Dataset([1.0], [2.0], [0]))
    assert e.event_times.size == e.event_counts.size == 0


def test_event_cdf_two_events():
    e = build_empirical(Dataset([1.0, 1.0], [1.0, 3.0], [1, 1]))
    assert e.event_times.tolist() == [2.0, 4.0]
    assert event_fraction(e).tolist() == [0.5, 1.0]


def test_at_risk_closed_interval():
    d = Dataset([1.0], [2.0], [1])
    rb = classic_at_risk(d)
    assert rb(0.5) == 0.0
    assert rb(1.0) == 1.0
    assert rb(3.0) == 1.0
    assert rb(3.1) == 0.0


def test_at_risk_two_subjects():
    d = Dataset([1.0, 2.0], [2.0, 3.0], [1, 1])
    rb = classic_at_risk(d)
    assert rb(2.5) == 1.0


def test_at_risk_vanishes_beyond_exits():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 12)
    rb = classic_at_risk(d)
    assert rb(float(d.y.max()) + 1.0) == 0.0


def test_pooled_counts_one_observation():
    e = build_empirical(Dataset([1.0], [2.0], [1]))
    assert e.pooled_times.tolist() == [1.0, 2.0]
    assert np.cumsum(e.pooled_jumps).tolist() == [1, 2]
    assert e.pooled_at_risk_counts.tolist() == [2, 1]


def test_pooled_counts_censored_residual():
    # a censored residual time carries no mass but is at risk up to itself
    e = build_empirical(Dataset([1.0], [2.0], [0]))
    assert e.pooled_times.tolist() == [1.0]
    assert e.pooled_jumps.tolist() == [1]
    assert e.pooled_at_risk_counts.tolist() == [2]


def test_pooled_at_risk_mixed():
    e = build_empirical(Dataset([1.0, 2.0], [5.0, 6.0], [1, 1]))
    assert e.pooled_times.tolist() == [1.0, 2.0, 5.0, 6.0]
    assert (e.pooled_at_risk_counts / e.n).tolist() == [2.0, 1.5, 1.0, 0.5]


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_equality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 51))
    d = random_dataset(rng, n)
    rb = classic_at_risk(d)
    for t in probe_points(d):
        assert rb(t) == pytest.approx(oracles.r_bar_at(d, t), abs=1e-12)


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
    r = classic_at_risk(d)(pts)
    assert np.all((r >= -1e-15) & (r <= 1))
    # counting consistency: at risk can't exceed entered or still-present
    entered = count_at_most(np.sort(d.a), pts) / d.n
    present = count_at_least(np.sort(d.y), pts) / d.n
    assert np.all(r <= entered + 1e-15)
    assert np.all(r <= present + 1e-15)
    # the pooled at-risk count falls by at least the jump at each mass point
    k, dq = e.pooled_at_risk_counts, e.pooled_jumps
    assert np.all(np.diff(e.pooled_times) > 0)
    assert np.all((dq >= 1) & (dq <= k) & (k <= 2 * d.n))
    assert np.all(k[:-1] - k[1:] >= dq[:-1])
    assert np.all(np.diff(e.event_times) > 0)
    assert np.all(e.event_counts >= 1)


# a coarse lattice, so columns and queries tie often
_LATTICE = st.integers(-4, 12).map(lambda k: k * 0.25)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LATTICE, max_size=30), st.lists(_LATTICE | st.floats(-1e3, 1e3), max_size=20))
def test_one_sided_counts_equal_brute_force(column, queries):
    # ties, an empty column and queries outside the data all take the
    # comparisons' counts, as integers
    x, t = np.sort(np.array(column, dtype=float)), np.array(queries, dtype=float)
    at_most, at_least = count_at_most(x, t), count_at_least(x, t)
    assert at_most.tolist() == [int(np.sum(x <= q)) for q in t]
    assert at_least.tolist() == [int(np.sum(x >= q)) for q in t]
    for q in t.tolist():
        assert count_at_most(x, q) == np.sum(x <= q) and count_at_least(x, q) == np.sum(x >= q)


def test_totals():
    rng = np.random.default_rng(42)
    d = random_dataset(rng, 25, allow_zero_v=False)
    e = build_empirical(d)
    assert e.event_counts.sum() == d.n_events
    assert e.pooled_jumps.sum() == d.n + d.n_events
    # only residual times censored before the first mass point have left
    assert e.pooled_at_risk_counts[0] == 2 * d.n - np.sum(d.v < e.pooled_times[0])


@pytest.mark.parametrize("case", range(10))
def test_curves_equal_direct_construction(case):
    # the plugin jump weight at each pooled mass point is the Kaplan-Meier
    # gain over the closed pooled at-risk fraction, bit for bit
    rng = np.random.default_rng(300 + case)
    samples = special_datasets() if case == 0 else [random_dataset(rng, int(rng.integers(1, 60)))]
    for d in samples:
        ctx = make_plugin_context(d, EvalGrid.of_points([1.0]))
        e = ctx.curves.empirical
        at_risk = (
            sum(1 for i in range(d.n) if d.a[i] >= s) / d.n
            + sum(1 for i in range(d.n) if d.v[i] >= s) / d.n
            for s in e.pooled_times
        )
        kq, dq = e.pooled_at_risk_counts, e.pooled_jumps
        gain = np.where(dq < kq, kq / np.maximum(kq - dq, 1), 0.0)
        assert np.array_equal(ctx.pooled[0], gain / np.fromiter(at_risk, float))


def test_curves_are_kept_and_read_only():
    e = build_empirical(Dataset([1.0, 2.0], [5.0, 6.0], [1, 0]))
    with pytest.raises(FrozenInstanceError):
        e.pooled_times = e.event_times
    with pytest.raises(FrozenInstanceError):
        e.dataset = None
