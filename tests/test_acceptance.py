"""Acceptance gate: every shipped property, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte-Carlo
criteria use one fixed seed each; expected values come from the brute-force
oracles in ``oracles.py``, textbook reductions, or analytic truth models.
"""

import functools
import time

import numpy as np
import pytest

import oracles
from lbrc.data import Dataset
from lbrc.errors import WindowError
from lbrc.estimators import fit
from lbrc.influence import (
    assumption3_diagnostic,
    make_oracle_context,
    make_plugin_context,
    plugin_variance,
    subject_influence,
)
from lbrc.quadrature import panel_integrals
from lbrc.simulate import consistency_check, rate_experiment, sample_lbrc
from lbrc.stepfun import EvalGrid
from lbrc.truth import ExponentialModel
from test_empirical import random_dataset
from test_estimators import named_curves

SEED = 20250808
MODEL = ExponentialModel(censor_rate=0.5, rate=1.0)
GRID = MODEL.default_grid()
LADDER = [250, 500, 1000, 2000, 4000]
REPS = 200
THREADS = 2


def report(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {num}: {desc}")
                raise
            print(f"\nPASS criterion {num}: {desc}")

        return run

    return wrap


@report(1, "estimators equal literal-definition brute force, n <= 10, tol 1e-12")
def test_criterion_01_exact_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        d = random_dataset(rng, n)
        curves = named_curves(fit(d))
        vals = np.concatenate([d.a, d.v, d.y])
        probes = [
            float(rng.choice(vals)),
            float(rng.choice(vals)) + 0.1,
            float(rng.choice(vals)) - 0.05,
            float(vals.max()) + 1.0,
            float(vals[vals > 0].min() * 0.5) if np.any(vals > 0) else 0.01,
            float(rng.uniform(0, vals.max())),
        ]
        for t in probes:
            if t < 0:
                continue
            for name, oracle in oracles.ALL_ESTIMATOR_ORACLES.items():
                curve = curves[name]
                got = curve(t) if name == "combined_risk" else curve.at(t)
                want = oracle(d, t)
                assert abs(got - want) <= 1e-12, (name, n, t, got, want)
    elapsed = time.time() - start
    print(f"  [criterion 1 elapsed {elapsed:.1f} s]", end=" ")
    assert elapsed < 10.0


@report(2, "reductions: no truncation -> Kaplan-Meier, no censoring -> Lynden-Bell (exact)")
def test_criterion_02_reduction_identities():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        n = int(rng.integers(1, 101))
        times = rng.uniform(0.1, 5.0, n)
        events = (rng.random(n) > 0.35).astype(int)
        d = Dataset(np.zeros(n), times, events)
        f = fit(d).tjw_cdf
        for x in np.concatenate([times, rng.uniform(0, 6, 5)]):
            assert f.at(x) == oracles.kaplan_meier_cdf_at(times, events, float(x))
    for _ in range(50):
        n = int(rng.integers(1, 101))
        a = rng.uniform(0.05, 2.0, n)
        y = a + rng.uniform(0.01, 3.0, n)
        d = Dataset(a, y - a, np.ones(n, dtype=int))
        f = fit(d).tjw_cdf
        for x in np.concatenate([y, rng.uniform(0, 6, 5)]):
            assert f.at(x) == oracles.lynden_bell_cdf_at(a, y, float(x))


@report(3, "hand example: entry survival (1, 0.5, 0), risk 1 at exit, unit hazard jump")
def test_criterion_03_hand_example():
    d = Dataset([1.0], [2.0], [1])
    curves = fit(d)
    assert curves.entry_survival.at(0.5) == 1.0
    assert curves.entry_survival.at(1.5) == 0.5
    assert curves.entry_survival.at(2.5) == 0.0
    assert curves.combined_risk(3.0) == 1.0
    assert curves.combined_cumhaz.at(2.999) == 0.0
    assert curves.combined_cumhaz.at(3.0) == 1.0
    assert curves.combined_cumhaz.at(99.0) == 1.0
    assert curves.cdf_safeguarded.at(3.0) == 0.5


@report(4, "influence functions are mean zero over 1e5 draws (3 SE at 10 grid points)")
def test_criterion_04_mean_zero_influence():
    start = time.time()
    grid10 = MODEL.default_grid(count=10)
    ctx = make_oracle_context(MODEL, grid10)
    d = sample_lbrc(MODEL, 100000, seed=202)
    phi, psi1, psi2 = subject_influence(ctx, d.a, d.v, d.delta, grid10.points)
    for name, arr in (("phi", phi), ("psi1", psi1), ("psi2", psi2)):
        mean = arr.mean(axis=1)
        se = arr.std(axis=1) / np.sqrt(arr.shape[1])
        assert np.all(np.abs(mean) <= 3.0 * se), name
    elapsed = time.time() - start
    print(f"  [criterion 4 elapsed {elapsed:.1f} s]", end=" ")
    assert elapsed < 120.0


@report(5, "representation remainders decay with slope <= -0.5 (ladder 250..4000, 200 reps)")
def test_criterion_05_representation_rates():
    start = time.time()
    slopes = {}
    for which in ("Rn1", "Rn2", "Rn3"):
        rep = rate_experiment(
            MODEL, LADDER, REPS, which, GRID, seed=SEED, threads=THREADS
        )
        slopes[which] = rep.slope
        assert np.all(np.diff(rep.medians) < 0), which
        assert rep.slope <= rep.target_exponent + 0.25, which
    print(f"  [criterion 5 slopes {slopes}, elapsed {time.time()-start:.0f} s]", end=" ")
    assert slopes["Rn1"] <= -0.5
    assert slopes["Rn2"] <= -0.5
    assert slopes["Rn3"] <= -0.5


@report(6, "safeguarded-vs-plain product-limit gap decays with slope <= -0.85")
def test_criterion_06_safeguard_gap_rate():
    rep = rate_experiment(MODEL, LADDER, REPS, "Lemma35", GRID, seed=SEED, threads=THREADS)
    print(f"  [criterion 6 slope {rep.slope:.3f}]", end=" ")
    assert np.all(np.diff(rep.medians) < 0)
    assert rep.slope <= rep.target_exponent + 0.25
    assert rep.slope <= -0.85


@report(7, "hazard-estimate consistency: slopes <= -0.4, median sup CDF error < 0.05 at n=2000")
def test_criterion_07_consistency_rates():
    rep33 = rate_experiment(MODEL, LADDER, REPS, "Lemma33", GRID, seed=SEED, threads=THREADS)
    rep37 = rate_experiment(MODEL, LADDER, REPS, "Lemma37", GRID, seed=SEED, threads=THREADS)
    out = consistency_check(MODEL, 2000, REPS, GRID, seed=SEED)
    print(
        f"  [criterion 7 slopes {rep33.slope:.3f}, {rep37.slope:.3f}; "
        f"median sup cdf {out['median_sup_cdf']:.4f}]",
        end=" ",
    )
    assert rep33.slope <= rep33.target_exponent + 0.25
    assert rep37.slope <= rep37.target_exponent + 0.25
    assert rep33.slope <= -0.4
    assert rep37.slope <= -0.4
    assert out["median_sup_cdf"] < 0.05


@report(8, "plugin-variance intervals cover truth at the median in 93-97% of 1000 reps")
def test_criterion_08_coverage():
    t_med = MODEL.quantile(0.5)
    grid = EvalGrid.of_points([t_med])
    z = 1.959963984540054
    cover = 0
    for r in range(1000):
        d = sample_lbrc(MODEL, 1000, np.random.SeedSequence(SEED, spawn_key=(0, r)))
        ctx = make_plugin_context(d, grid)
        f_hat = ctx.curves.cdf.at(t_med)
        se = float(np.sqrt(plugin_variance(make_plugin_context(d, grid)))[0])
        if abs(f_hat - 0.5) <= z * se:
            cover += 1
    rate = cover / 1000
    print(f"  [criterion 8 coverage {rate:.3f}]", end=" ")
    assert 0.93 <= rate <= 0.97


@report(9, "identical seeds give byte-identical simulation CSVs and experiment reports")
def test_criterion_09_determinism(tmp_path):
    from lbrc.cli import main

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--n", "200", "--seed", "17", "--out", str(f1)]) == 0
    assert main(["simulate", "--n", "200", "--seed", "17", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "family=exponential\nrate=1.0\ncensor_rate=0.5\nsizes=60,120\n"
        "reps=50\nwhich=Rn3\ngrid=quantiles:0.10:0.90:8\nseed=11\nthreads=2\n"
    )
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["rate-experiment", str(cfg), "--out", str(r1)]) == 0
    assert main(["rate-experiment", str(cfg), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


@report(10, "window diagnostic finite at the 90th percentile, refused at the 99.9th")
def test_criterion_10_window_diagnostic():
    ctx = make_oracle_context(MODEL, GRID)
    b90 = oracles.observed_time_quantile(MODEL, 0.90)
    val = assumption3_diagnostic(ctx, b90)
    edges = np.linspace(GRID.lower, b90, 4001)
    ref = float(
        np.sum(
            panel_integrals(
                lambda u: MODEL.event_subdist_density(u) / MODEL.risk(u) ** 3, edges
            )
        )
    )
    assert np.isfinite(val)
    assert abs(val - ref) < 1e-6

    b999 = oracles.observed_time_quantile(MODEL, 0.999)
    with pytest.raises(WindowError):
        assumption3_diagnostic(ctx, b999)
    wide = EvalGrid(GRID.points, b999)
    with pytest.raises(WindowError):
        rate_experiment(MODEL, [100, 200], 50, "Rn1", wide, seed=SEED)
