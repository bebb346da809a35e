"""The three benchmark workloads, their inputs and their correctness checks.

Each workload has a set-up step (datasets and the CSV files it reads), a
round (the unit the timed section repeats) and a check that runs outside the
timed section.  The library is always reached through module attributes at
call time (``simulate.rate_experiment``, ``influence.subject_influence``), so
the wrappers in ``trace_layers`` see every call.

Checks compare identities and cross-paths, never stored numbers, so that a
deliberate change to the statistics does not read as a failure.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import platform
from pathlib import Path

import numpy as np
import scipy

import lbrc
from lbrc import cli, estimators, influence, io, quadrature, simulate, truth

# Full sizes.  ``SMOKE`` overrides them with tiny ones for the self-test.
FULL = {
    "ladder-rn2": {"sizes": [250, 500, 1000, 2000, 4000], "reps": 50, "threads": 2},
    "cli-intervals": {"n_large": 100_000, "n_small": 4000, "estimate_grid": "n:200",
                      "influence_grid": "n:50"},
    "oracle-subjects": {"n_exp": 100_000, "n_weibull": 5000, "points": 10},
}
SMOKE = {
    "ladder-rn2": {"sizes": [200, 400, 800], "reps": 50, "threads": 2},
    "cli-intervals": {"n_large": 3000, "n_small": 400, "estimate_grid": "n:20",
                      "influence_grid": "n:5"},
    "oracle-subjects": {"n_exp": 3000, "n_weibull": 300, "points": 4},
}

# acceptance scenario: exponential lifetimes, rate 1, residual censoring 0.5
EXPONENTIAL = {"family": "exponential", "censor_rate": 0.5, "rate": 1.0}
WEIBULL = {"family": "weibull", "censor_rate": 0.5, "shape": 1.5}


def _data_seed(seed: int, k: int):
    return np.random.SeedSequence([seed, k])


def fresh_process_state() -> None:
    """Empty module-level caches so that every round pays for its oracle
    tables, as a fresh ``lbrc`` process does."""
    for module, attr in ((simulate, "_CTX_CACHE"), (truth, "_WEIBULL_TABLES")):
        cache = getattr(module, attr, None)
        if cache is not None:
            cache.clear()


def read_table(path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by ``lbrc``: '#' lines, a header, float rows."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    # numpy's parser rounds correctly, so repr-written floats come back exact
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2).reshape(-1, len(header))
    return {name: rows[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# ladder-rn2


class LadderRn2:
    """``rate_experiment`` for Rn2 on the acceptance scenario, in the pool."""

    name = "ladder-rn2"
    which = "Rn2"

    def __init__(self, cfg, seed, work: Path):
        self.sizes = cfg["sizes"]
        self.reps = cfg["reps"]
        self.threads = cfg["threads"]
        self.seed = seed
        self._spot_values = None

    def setup(self):
        self.model = truth.make_model(**EXPONENTIAL)
        self.grid = self.model.default_grid()
        rng = np.random.default_rng([self.seed, 99])
        last = len(self.sizes) - 1
        self.spots = [(si, int(rng.integers(self.reps))) for si in (0, last // 2, last)]

    def operations(self) -> int:
        return len(self.sizes) * self.reps

    def round(self, serial: bool = False):
        fresh_process_state()
        return simulate.rate_experiment(
            self.model, self.sizes, self.reps, self.which, self.grid, self.seed,
            threads=1 if serial else self.threads,
        )

    def keep(self, report):
        return report

    def _spot(self, si, r):
        """One replication recomputed on the public path, outside the pool."""
        d = simulate.sample_lbrc(
            self.model, self.sizes[si], np.random.SeedSequence(self.seed, spawn_key=(si, r))
        )
        ctx = influence.make_oracle_context(self.model, self.grid)
        return influence.residual_cdf(d, ctx, self.grid, estimators.fit(d))

    def check(self, report) -> tuple[int, list[str]]:
        ops = self.operations()
        sup = np.asarray(report.sup_residuals, dtype=float)
        if sup.shape != (len(self.sizes), self.reps):
            return ops, [f"sup array shape {sup.shape}"]
        failed = int(np.count_nonzero(~np.isfinite(sup)))
        problems = [f"{failed} non-finite sup residuals"] if failed else []
        med = np.median(sup, axis=1)
        if not np.all(np.diff(med) < 0):
            problems.append(f"medians do not strictly decrease: {med.tolist()}")
        target = simulate.TARGET_EXPONENTS[self.which]
        if not report.slope <= target + 0.25:
            problems.append(f"slope {report.slope} above target {target} + 0.25")
        if len(problems) > bool(failed):
            failed = ops  # a failed aggregate check fails every replication
        if self._spot_values is None:
            self._spot_values = {key: self._spot(*key) for key in self.spots}
        convention = getattr(report, "convention", None)
        for (si, r), rep in self._spot_values.items():
            value = rep.residual_sup
            if convention is not None and getattr(rep, "convention", convention) != convention:
                value = rep.alt_residual_sup
            if sup[si, r] != value:
                problems.append(f"spot replication ({si}, {r}): pooled {sup[si, r]!r} "
                                f"!= in-process {value!r}")
                failed = min(ops, failed + 1)
        return failed, problems


# ---------------------------------------------------------------------------
# cli-intervals


_CURVE_FILES = {
    "f_tilde.csv": "cdf",
    "f_bar.csv": "cdf_safeguarded",
    "s_a.csv": "entry_survival",
    "lambda_tilde.csv": "combined_cumhaz",
    "f_tjw.csv": "tjw_cdf",
}


class CliIntervals:
    """``lbrc estimate`` and ``lbrc influence`` through ``lbrc.cli.main``."""

    name = "cli-intervals"

    def __init__(self, cfg, seed, work: Path):
        self.cfg = cfg
        self.seed = seed
        self.work = work
        self.inputs = {
            "exp": (EXPONENTIAL, cfg["n_large"]),
            "weib": (WEIBULL, cfg["n_large"]),
            "weib_small": (WEIBULL, cfg["n_small"]),
        }
        self._round = 0
        self._fits = {}

    def setup(self):
        self.data = {}
        for k, (key, (spec, n)) in enumerate(self.inputs.items()):
            d = simulate.sample_lbrc(truth.make_model(**spec), n, _data_seed(self.seed, k))
            io.write_dataset_csv(self.work / f"{key}.csv", d)
            self.data[key] = d

    def operations(self) -> int:
        return 5

    def _commands(self, out: Path):
        est, infl = self.cfg["estimate_grid"], self.cfg["influence_grid"]
        cmds = []
        for key in ("exp", "weib"):
            src = str(self.work / f"{key}.csv")
            cmds.append((key, ["estimate", src, "--grid", est, "--out", str(out / f"{key}_curves")]))
            cmds.append((key, ["influence", src, "--grid", infl, "--out", str(out / f"{key}_ci.csv")]))
        src = str(self.work / "weib_small.csv")
        cmds.append(("weib_small", ["influence", src, "--grid", "jumps",
                                    "--out", str(out / "weib_small_ci.csv")]))
        return cmds

    def round(self, serial: bool = False):
        fresh_process_state()
        # every round writes into its own directory, so all are checked later
        self._round += 1
        out = self.work / f"round{self._round}"
        out.mkdir()
        results = []
        for key, argv in self._commands(out):
            try:
                with contextlib.redirect_stdout(_stdio.StringIO()):
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = f"{type(exc).__name__}: {exc}"
            results.append((key, argv, code))
        return results

    def keep(self, results):
        return results

    def _fit(self, key):
        if key not in self._fits:
            self._fits[key] = estimators.fit(self.data[key])
        return self._fits[key]

    def _check_command(self, key, argv, code) -> list[str]:
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}"]
        curves = self._fit(key)
        out = Path(argv[-1])
        problems = []
        if argv[0] == "estimate":
            for fname, attr in _CURVE_FILES.items():
                table = read_table(out / fname)
                t, value = table["t"], table["value"]
                if t.size == 0 or not np.array_equal(value, getattr(curves, attr).at(t)):
                    problems.append(f"{out / fname}: rows differ from fit(d).{attr}")
            return problems
        table = read_table(out)
        t, cdf, se = table["t"], table["cdf"], table["se"]
        if t.size == 0:
            return [f"{out}: no rows"]
        if argv[3] == "jumps":
            d = self.data[key]
            if not np.array_equal(t, np.unique(d.y[d.delta == 1])):
                problems.append(f"{out}: t column is not the distinct event times")
        if not np.array_equal(cdf, curves.cdf.at(t)):
            problems.append(f"{out}: cdf column differs from fit(d).cdf")
        if not np.all(np.isfinite(se) & (se >= 0)):
            problems.append(f"{out}: se not finite and >= 0")
        if not np.all((table["ci_low"] <= cdf) & (cdf <= table["ci_high"])):
            problems.append(f"{out}: ci_low <= cdf <= ci_high violated")
        return problems

    def check(self, results) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for key, argv, code in results:
            found = self._check_command(key, argv, code)
            failed += bool(found)
            problems += found
        return failed, problems


# ---------------------------------------------------------------------------
# oracle-subjects


class OracleSubjects:
    """Oracle ``subject_influence`` on exponential and Weibull-1.5 samples."""

    name = "oracle-subjects"
    tolerance = 1e-10

    def __init__(self, cfg, seed, work: Path):
        self.cfg = cfg
        self.seed = seed
        self.parts = {"exp": (EXPONENTIAL, cfg["n_exp"]), "weib": (WEIBULL, cfg["n_weibull"])}
        self._reference = None

    def setup(self):
        self.cases = {}
        for k, (key, (spec, n)) in enumerate(self.parts.items()):
            model = truth.make_model(**spec)
            d = simulate.sample_lbrc(model, n, _data_seed(self.seed, k))
            self.cases[key] = (model, model.default_grid(count=self.cfg["points"]), d)

    def operations(self) -> int:
        return len(self.parts)

    def round(self, serial: bool = False):
        fresh_process_state()
        out = {}
        for key, (model, grid, d) in self.cases.items():
            try:
                ctx = influence.make_oracle_context(model, grid)
                out[key] = influence.subject_influence(ctx, d.a, d.v, d.delta, grid.points)
            except Exception as exc:  # counted as a failed operation
                out[key] = f"{type(exc).__name__}: {exc}"
        return out

    @staticmethod
    def keep(out):
        """Shape, finiteness and per-subject means: all the check needs."""
        return {
            key: arrays if isinstance(arrays, str) else (
                arrays[0].shape,
                all(bool(np.all(np.isfinite(a))) for a in arrays),
                [a.mean(axis=1) for a in arrays],
            )
            for key, arrays in out.items()
        }

    def _means_reference(self):
        if self._reference is None:
            self._reference = {}
            for key, (model, grid, d) in self.cases.items():
                ctx = influence.make_oracle_context(model, grid)
                ref = influence.influence_means(ctx, d, grid.points)
                self._reference[key] = [ref["mean_phi"], ref["mean_psi1"], ref["mean_psi2"]]
        return self._reference

    def check(self, summary) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for key, item in summary.items():
            model, grid, d = self.cases[key]
            if isinstance(item, str):
                failed += 1
                problems.append(f"{key}: {item}")
                continue
            shape, finite, means = item
            found = []
            if shape != (grid.points.size, d.n):
                found.append(f"{key}: shape {shape}")
            if not finite:
                found.append(f"{key}: non-finite influence values")
            for label, mean, ref in zip(("phi", "psi1", "psi2"), means,
                                        self._means_reference()[key]):
                err = float(np.max(np.abs(mean - ref)))
                if not err <= self.tolerance:
                    found.append(f"{key}: mean {label} differs from influence_means by {err:.3g}")
            failed += bool(found)
            problems += found
        return failed, problems


WORKLOADS = {w.name: w for w in (LadderRn2, CliIntervals, OracleSubjects)}


# ---------------------------------------------------------------------------
# layer tracing


def trace_layers(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    w = tracer.wrap
    w(simulate, "rate_experiment", "simulate.rate_experiment")
    w(simulate, "sample_lbrc", "simulate.sample_lbrc")
    w(simulate, "make_oracle_context", "influence.make_oracle_context", {"caller": "simulate"})
    w(simulate, "residual_cdf", "influence.residual_cdf", {"caller": "simulate"})
    w(simulate, "fit", "estimators.fit", {"caller": "simulate"})
    w(cli, "fit", "estimators.fit", {"caller": "cli"})
    w(influence, "fit", "estimators.fit", {"caller": "influence"})
    w(estimators, "build_empirical", "empirical.build_empirical", {"caller": "estimators"})
    w(influence, "build_empirical", "empirical.build_empirical", {"caller": "influence"})
    w(influence, "influence_means", "influence.influence_means")
    w(influence, "make_oracle_context", "influence.make_oracle_context", {"caller": "influence"})
    w(influence, "make_plugin_context", "influence.make_plugin_context", {"caller": "influence"})
    w(cli, "make_plugin_context", "influence.make_plugin_context", {"caller": "cli"})
    w(influence, "subject_influence", "influence.subject_influence",
      count=lambda a, k, r: {"bytes_out": sum(x.nbytes for x in r)})
    w(cli, "plugin_variance", "influence.plugin_variance")
    w(cli, "lil_quantities", "influence.lil_quantities")
    w(cli, "main", "cli.main")
    w(cli, "parse_dataset", "io.parse_dataset",
      count=lambda a, k, r: {"bytes_read": os.path.getsize(a[0])})
    w(cli, "write_curve_csv", "io.write_curve_csv",
      count=lambda a, k, r: {"bytes_written": os.path.getsize(a[0])})
    w(cli, "write_influence_csv", "io.write_influence_csv",
      count=lambda a, k, r: {"bytes_written": os.path.getsize(a[0])})

    sc = quadrature.SmoothCumulative
    w(sc, "query", "quadrature.SmoothCumulative.query",
      count=lambda a, k, r: {"points": np.size(r), "density_evals": np.size(r) * a[0].nodes})
    w(sc, "__init__", "quadrature.SmoothCumulative.build",
      count=lambda a, k, r: {"density_evals": (a[0].edges.size - 1) * a[0].nodes})

    # every public method of the truth models; nested calls become child spans
    for cls in (truth.TruthModel, truth.ExponentialModel, truth.WeibullModel):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not callable(value) or isinstance(value, type):
                continue
            w(cls, attr, f"truth.{attr}",
              count=lambda a, k, r: {"points": np.size(a[1]) if len(a) > 1 else 0})


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lbrc": getattr(lbrc, "__version__", "unknown"),
    }


