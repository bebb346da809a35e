import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from lbrc import simulate
from lbrc.errors import ConfigError, WindowError
from lbrc.estimators import fit
from lbrc.influence import make_oracle_context, residual_cdf
from lbrc.simulate import (
    TARGET_EXPONENTS,
    consistency_check,
    normalize_which,
    rate_experiment,
    sample_lbrc,
)
from lbrc.stepfun import EvalGrid
from lbrc.truth import ExponentialModel, WeibullModel

MODEL = ExponentialModel(censor_rate=0.5, rate=1.0)


class TestSampling:
    def test_deterministic(self):
        d1 = sample_lbrc(MODEL, 50, seed=42)
        d2 = sample_lbrc(MODEL, 50, seed=42)
        assert np.array_equal(d1.a, d2.a)
        assert np.array_equal(d1.v, d2.v)
        assert np.array_equal(d1.delta, d2.delta)
        d3 = sample_lbrc(MODEL, 50, seed=43)
        assert not np.array_equal(d1.a, d3.a)

    def test_structural_invariants(self):
        d = sample_lbrc(MODEL, 100000, seed=1)
        assert np.all(d.a > 0)
        assert np.all(d.v > 0)
        assert np.all(d.y == d.a + d.v)

    def test_no_censoring_sentinel(self):
        model = ExponentialModel(censor_rate=None, rate=1.0)
        d = sample_lbrc(model, 500, seed=7)
        assert np.all(d.delta == 1)
        # total time is the latent length-biased lifetime: shape-2 gamma
        ks = stats.kstest(d.y, lambda x: stats.gamma.cdf(x, a=2.0))
        assert ks.pvalue > 0.01

    def test_entry_delay_marginal_is_exponential(self):
        # entry delay under an exponential(1) lifetime is exponential(1)
        d = sample_lbrc(MODEL, 100000, seed=11)
        ks = stats.kstest(d.a, lambda x: -np.expm1(-x))
        assert ks.pvalue > 0.01

    def test_residual_marginal_matches_entry_marginal(self):
        d = sample_lbrc(MODEL, 100000, seed=12)
        latent_residual = d.v[d.delta == 1]
        # uncensored residuals follow the conditional law given V <= C, not
        # the marginal; test the marginal through the censoring identity:
        # P(observed residual >= t) = S_A(t) * S_C(t)
        t = np.linspace(0.05, 2.0, 15)
        emp = (d.v[None, :] >= t[:, None]).mean(axis=1)
        want = MODEL.entry_survival(t) * MODEL.censor_survival(t)
        assert np.abs(emp - want).max() < 4.0 / np.sqrt(d.n)

    def test_censoring_fraction_matches_integral(self):
        d = sample_lbrc(MODEL, 100000, seed=13)
        frac = 1.0 - d.delta.mean()
        # censoring probability by two-dimensional integration over the
        # joint density of (entry delay, residual) and the clock law
        def censored_given_v(v):
            return -np.expm1(-MODEL.censor_rate * v)

        want, _ = integrate.quad(
            lambda v: MODEL.survival(v) / MODEL.mu * censored_given_v(v), 0, np.inf, limit=200
        )
        se = np.sqrt(want * (1 - want) / d.n)
        assert abs(frac - want) < 3 * se

    def test_weibull_sampling(self):
        model = WeibullModel(censor_rate=None, shape=1.7, scale=1.2)
        d = sample_lbrc(model, 50000, seed=20)
        ks = stats.kstest(d.a, lambda x: 1.0 - model.entry_survival(np.asarray(x)))
        assert ks.pvalue > 0.01

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            sample_lbrc(MODEL, 0, seed=1)


class TestRateExperiment:
    GRID = MODEL.default_grid(count=8)

    def test_single_size_rejected(self):
        with pytest.raises(ConfigError, match="2 sizes"):
            rate_experiment(MODEL, [100], 50, "Rn1", self.GRID, seed=1)

    def test_nonincreasing_sizes_rejected(self):
        with pytest.raises(ConfigError):
            rate_experiment(MODEL, [200, 100], 50, "Rn1", self.GRID, seed=1)

    def test_too_few_reps_rejected(self):
        with pytest.raises(ConfigError, match="replications"):
            rate_experiment(MODEL, [100, 200], 10, "Rn1", self.GRID, seed=1)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigError, match="selector"):
            normalize_which("Rn9")

    def test_window_beyond_95th_percentile_refused(self):
        wide = EvalGrid(self.GRID.points, MODEL.h_quantile(0.999))
        with pytest.raises(WindowError):
            rate_experiment(MODEL, [100, 200], 50, "Rn1", wide, seed=1)

    def test_tasks_ship_the_model_without_its_exit_table(self):
        # the window check reads the censored Weibull exit CDF; the model that
        # every pool task pickles keeps no table from it
        model = WeibullModel(censor_rate=0.5, shape=1.5)
        grid = model.default_grid(count=8)
        rate_experiment(model, [60, 120], 50, "Lemma35", grid, seed=5)
        assert len(pickle.dumps(model)) < 1000
        h95 = model.h_quantile(0.95)
        with pytest.raises(WindowError, match=f"percentile {h95:.6g} "):
            rate_experiment(model, [60, 120], 50, "Lemma35", EvalGrid(grid.points, h95), seed=5)

    def test_selector_case_insensitive(self):
        assert normalize_which("lemma35") == "Lemma35"
        assert normalize_which("RN2") == "Rn2"

    def test_small_ladder_runs_and_is_deterministic(self):
        rep1 = rate_experiment(MODEL, [60, 120], 50, "Lemma35", self.GRID, seed=5)
        rep2 = rate_experiment(MODEL, [60, 120], 50, "Lemma35", self.GRID, seed=5)
        assert np.array_equal(rep1.sup_residuals, rep2.sup_residuals)
        assert rep1.slope == rep2.slope
        assert rep1.target_exponent == TARGET_EXPONENTS["Lemma35"]
        assert rep1.slope < 0

    @pytest.mark.parametrize(
        "which, reps, threads, model",
        [
            ("Lemma33", 50, 2, MODEL),
            ("Rn2", 50, 2, MODEL),
            ("Rn2", 53, 3, MODEL),
            ("Rn2", 50, 2, WeibullModel(censor_rate=0.5, shape=1.5)),
        ],
        ids=["Lemma33", "Rn2", "Rn2-reps53-threads3", "Rn2-weibull-1.5"],
    )
    def test_threads_do_not_change_results(self, which, reps, threads, model):
        # Rn2 reads the oracle tables, so its pool workers use shipped ones;
        # 53 replications in interleaved tasks leave the tasks uneven
        grid = model.default_grid(count=8)
        serial = rate_experiment(model, [60, 120], reps, which, grid, seed=5)
        parallel = rate_experiment(model, [60, 120], reps, which, grid, seed=5, threads=threads)
        assert np.array_equal(serial.sup_residuals, parallel.sup_residuals)
        if which == "Rn2":
            # the last replication sits in its own column
            seed_seq = np.random.SeedSequence(5, spawn_key=(1, reps - 1))
            d = sample_lbrc(model, 120, seed_seq)
            ctx = make_oracle_context(model, grid)
            sup = residual_cdf(d, ctx, grid, fit(d)).residual_sup
            assert parallel.sup_residuals[1, reps - 1] == sup

    @pytest.mark.parametrize(
        "threads, model, special",
        [
            (1, "ExponentialModel(censor_rate=0.5, rate=1.0)", False),
            (2, "ExponentialModel(censor_rate=0.5, rate=1.0)", False),
            (2, "WeibullModel(censor_rate=0.5, shape=1.5)", True),
        ],
        ids=["1", "2", "weibull-1.5"],
    )
    def test_rate_experiment_loads_no_scipy_optimize(self, threads, model, special):
        # the window check's h_quantile finds its root without scipy.optimize,
        # whose import would add some 250 modules to the parent and its workers;
        # exponential sampling needs no scipy.special either, and the Weibull
        # run, whose entry survival is an incomplete gamma function, shows that
        # the module list is read
        code = (
            "import sys\n"
            "from lbrc.simulate import rate_experiment\n"
            "from lbrc.truth import ExponentialModel, WeibullModel\n"
            f"model = {model}\n"
            "grid = model.default_grid(count=8)\n"
            f"rate_experiment(model, [60, 120], 50, 'Rn2', grid, seed=11, threads={threads})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        loaded = ast.literal_eval(done.stdout.splitlines()[-1])
        assert ("scipy.special" in loaded) is special
        assert not [m for m in loaded if m == "scipy.optimize" or m.startswith("scipy.optimize.")]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, threads):
        with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
            rate_experiment(MODEL, [60, 120], 50, "Lemma33", self.GRID, seed=5, threads=threads)

    @pytest.mark.parametrize("cores, threads, workers", [(2, 200, 2), (1, 8, None), (4, 3, 3)])
    def test_threads_capped_at_cpu_count(self, monkeypatch, cores, threads, workers):
        # the pool is a stand-in that records its size and maps in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        rep = rate_experiment(MODEL, [60, 120], 50, "Lemma33", self.GRID, seed=5, threads=threads)
        assert started == ([] if workers is None else [workers])
        serial = rate_experiment(MODEL, [60, 120], 50, "Lemma33", self.GRID, seed=5)
        assert np.array_equal(rep.sup_residuals, serial.sup_residuals)

    def test_rn2_runs_at_a_long_time_scale(self):
        # times of order 1e4: the last edge of a geometric table could round
        # an ulp short of the window end, and a query there raised
        model = ExponentialModel(censor_rate=5e-5, rate=1e-4)
        grid = model.default_grid()
        rep = rate_experiment(model, [250, 500], 50, "Rn2", grid, seed=1)
        assert np.all(np.isfinite(rep.sup_residuals)) and rep.slope < 0

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    def test_power_of_two_time_unit_leaves_sups_unchanged(self, family):
        # a time unit 2^k rescales the model, the grid and every sample
        # exactly, so each replication's remainder is the same to the bit
        def model(unit):
            if family == "exponential":
                return ExponentialModel(censor_rate=0.5 / unit, rate=1.0 / unit)
            return WeibullModel(censor_rate=0.5 / unit, shape=1.5, scale=unit)

        grid = model(1.0).default_grid(count=8)
        for which in ("Rn1", "Rn2", "Rn3"):
            want = rate_experiment(model(1.0), [60, 120], 50, which, grid, seed=11)
            for k in (10, -20, 40):
                unit = 2.0**k
                scaled = EvalGrid(grid.points * unit, grid.b * unit)
                got = rate_experiment(model(unit), [60, 120], 50, which, scaled, seed=11)
                assert np.array_equal(got.sup_residuals, want.sup_residuals), (which, k)

    def test_rn2_sups_match_residual_cdf(self):
        rep = rate_experiment(MODEL, [100, 300], 50, "Rn2", self.GRID, seed=9)
        assert rep.sup_residuals.shape == (2, 50)
        d = sample_lbrc(MODEL, 300, np.random.SeedSequence(9, spawn_key=(1, 7)))
        ctx = make_oracle_context(MODEL, self.GRID)
        assert rep.sup_residuals[1, 7] == residual_cdf(d, ctx, self.GRID, fit(d)).residual_sup


class TestConsistencyCheck:
    def test_zero_reps_rejected(self):
        with pytest.raises(ConfigError):
            consistency_check(MODEL, 100, 0, MODEL.default_grid(), seed=1)

    def test_error_shrinks_when_n_doubles(self):
        grid = MODEL.default_grid(count=10)
        small = consistency_check(MODEL, 500, 200, grid, seed=2)
        large = consistency_check(MODEL, 1000, 200, grid, seed=3)
        ratio = large["median_sup_cdf"] / small["median_sup_cdf"]
        assert 0.6 <= ratio <= 0.8

    def test_reasonable_magnitude(self):
        grid = MODEL.default_grid(count=10)
        out = consistency_check(MODEL, 2000, 20, grid, seed=4)
        assert out["median_sup_cdf"] < 0.05
        assert out["median_sup_cumhaz"] < 0.25
