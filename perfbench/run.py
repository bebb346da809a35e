"""Benchmark for the lbrc library and CLI.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload ladder-rn2 --seed 1 --seconds 20 --trace 0

Workloads: ladder-rn2, cli-intervals, oracle-subjects (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics (set-up time, median
round wall and CPU time, peak RSS); with ``--trace 1`` it reports per-layer
metrics from spans recorded around calls into each library module, and writes
the spans to ``.bench_work/traces/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run (for example, no ``src/lbrc`` next to it).

``python3 perfbench/run.py --smoke`` runs all three workloads at tiny sizes,
traced and untraced, with their checks: the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# (name, unit, better), all from the traced round except the setup_* stats,
# which come from the traced set-up; busy_s counts outermost spans of a name,
# self_s subtracts child spans, calls_from_<module> counts calls per caller
PER_LAYER = [
    ("quadrature.SmoothCumulative.query.calls", "count", "lower"),
    ("quadrature.SmoothCumulative.query.points", "count", "lower"),
    ("quadrature.SmoothCumulative.query.busy_s", "s", "lower"),
    ("quadrature.SmoothCumulative.query.self_s", "s", "lower"),
    ("quadrature.SmoothCumulative.build.calls", "count", "lower"),
    ("quadrature.SmoothCumulative.build.busy_s", "s", "lower"),
    ("quadrature.density_evals", "count", "lower"),
    ("truth.entry_survival.calls", "count", "lower"),
    ("truth.entry_survival.points", "count", "lower"),
    ("truth.entry_survival.busy_s", "s", "lower"),
    ("truth.calls", "count", "lower"),
    ("truth.busy_s", "s", "lower"),
    ("influence.influence_means.calls", "count", "lower"),
    ("influence.influence_means.busy_s", "s", "lower"),
    ("influence.influence_means.self_s", "s", "lower"),
    ("influence.residual_cdf.calls", "count", "lower"),
    ("influence.residual_cdf.busy_s", "s", "lower"),
    ("influence.residual_cdf.self_s", "s", "lower"),
    ("influence.subject_influence.calls", "count", "lower"),
    ("influence.subject_influence.busy_s", "s", "lower"),
    ("influence.subject_influence.self_s", "s", "lower"),
    ("influence.subject_influence.bytes_out", "bytes", "lower"),
    ("influence.make_oracle_context.calls", "count", "lower"),
    ("influence.make_plugin_context.calls", "count", "lower"),
    ("influence.make_plugin_context.busy_s", "s", "lower"),
    ("influence.plugin_variance.calls", "count", "lower"),
    ("influence.plugin_variance.busy_s", "s", "lower"),
    ("influence.plugin_variance.self_s", "s", "lower"),
    ("influence.lil_quantities.busy_s", "s", "lower"),
    ("estimators.fit.calls", "count", "lower"),
    ("estimators.fit.calls_from_simulate", "count", "lower"),
    ("estimators.fit.calls_from_cli", "count", "lower"),
    ("estimators.fit.calls_from_influence", "count", "lower"),
    ("estimators.fit.busy_s", "s", "lower"),
    ("empirical.build_empirical.calls", "count", "lower"),
    ("empirical.build_empirical.calls_from_estimators", "count", "lower"),
    ("empirical.build_empirical.calls_from_influence", "count", "lower"),
    ("empirical.build_empirical.busy_s", "s", "lower"),
    ("simulate.sample_lbrc.calls", "count", "lower"),
    ("simulate.sample_lbrc.busy_s", "s", "lower"),
    ("simulate.sample_lbrc.setup_calls", "count", "lower"),
    ("simulate.sample_lbrc.setup_busy_s", "s", "lower"),
    ("simulate.rate_experiment.busy_s", "s", "lower"),
    ("simulate.rate_experiment.self_s", "s", "lower"),
    ("simulate.pool.workers", "count", "higher"),
    ("simulate.pool.tasks", "count", "lower"),
    ("simulate.pool.cpu_util", "ratio", "higher"),
    ("simulate.pool.speedup", "ratio", "higher"),
    ("io.parse_dataset.calls", "count", "lower"),
    ("io.parse_dataset.busy_s", "s", "lower"),
    ("io.parse_dataset.bytes_read", "bytes", "lower"),
    ("io.write_curve_csv.busy_s", "s", "lower"),
    ("io.write_curve_csv.bytes_written", "bytes", "lower"),
    ("io.write_influence_csv.busy_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_est", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

# per-layer metrics that must read above 0 on the workload where the layer
# does most of its work (the map in README.md); the self-test checks them so
# that a wrapper which stops seeing its calls fails instead of reading 0
MOST_WORK = {
    "ladder-rn2": [
        "quadrature.SmoothCumulative.query.calls",
        "quadrature.SmoothCumulative.build.calls",
        "truth.entry_survival.calls",
        "influence.influence_means.calls",
        "influence.residual_cdf.calls",
        "influence.make_oracle_context.calls",
        "estimators.fit.calls_from_simulate",
        "empirical.build_empirical.calls_from_estimators",
        "empirical.build_empirical.calls_from_influence",
        "simulate.sample_lbrc.calls",
        "simulate.rate_experiment.busy_s",
        "simulate.pool.workers",
        "simulate.pool.tasks",
    ],
    "cli-intervals": [
        "influence.subject_influence.calls",
        "influence.make_plugin_context.calls",
        "influence.plugin_variance.calls",
        "influence.lil_quantities.busy_s",
        "estimators.fit.calls_from_cli",
        "empirical.build_empirical.calls_from_estimators",
        "empirical.build_empirical.calls_from_influence",
        "simulate.sample_lbrc.setup_calls",
        "io.parse_dataset.calls",
        "io.write_curve_csv.busy_s",
        "io.write_influence_csv.busy_s",
        "cli.main.calls",
    ],
    "oracle-subjects": [
        "quadrature.SmoothCumulative.query.calls",
        "quadrature.SmoothCumulative.build.calls",
        "truth.entry_survival.calls",
        "truth.calls",
        "influence.subject_influence.calls",
        "influence.make_oracle_context.calls",
        "simulate.sample_lbrc.setup_calls",
    ],
}
MIN_COVERAGE = 0.9


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Larger of this process's and any reaped child's max RSS (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _import_seconds() -> float:
    """Time to import lbrc in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import lbrc; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(workload: str, seed: int, cfg: dict, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lbrc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"  # a checkout without .git, such as an exported tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        **versions,
        "config": cfg,
    }


def _checked(wl, kept) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for item in kept:
        f, p = wl.check(item)
        attempted += wl.operations()
        failed += f
        problems += p
    return attempted, failed, problems


def run_untraced(wl, seconds: float, min_rounds: int, setup_repeats: int):
    """Set-up timing, timed rounds, then checks on every round's output."""
    setups = []
    for _ in range(setup_repeats):
        imported = _import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(imported + time.perf_counter() - t0)

    walls, cpus, kept = [], [], []
    while len(walls) < min_rounds or sum(walls) < seconds:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        out = wl.round()
        t1, c1 = time.perf_counter(), _cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        kept.append(wl.keep(out))
        del out
    peak = _peak_rss_mb()

    t0 = time.perf_counter()
    attempted, failed, problems = _checked(wl, kept)
    check_s = time.perf_counter() - t0
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }
    detail = {"rounds": len(walls), "round_wall_s": walls, "round_cpu_s": cpus,
              "setup_repeats_s": setups, "check_s": check_s}
    return metrics, attempted, failed, problems, detail


def _counting_pool(base, stats: dict):
    """A drop-in ProcessPoolExecutor that records workers and submitted tasks."""

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stats["workers"] = self._max_workers

        def submit(self, fn, /, *args, **kwargs):
            stats["tasks"] += 1
            return super().submit(fn, *args, **kwargs)

    return CountingPool


def run_traced(wl, trace_path: Path, prov: dict):
    """One traced set-up, then a warm-up round (pooled where the workload uses
    the pool) and a traced serial round."""
    from lbrc import simulate
    from tracing import Tracer, covered_seconds, span_cost_seconds, summarize
    from workloads import trace_layers

    tracer = Tracer()
    with tracer:
        trace_layers(tracer)
        wl.setup()
    setup_end = len(tracer.spans)

    pool = {"workers": 0, "tasks": 0}
    base = vars(simulate).get("ProcessPoolExecutor")
    if base is not None:
        simulate.ProcessPoolExecutor = _counting_pool(base, pool)
    try:
        k0, t0 = _children_cpu_seconds(), time.perf_counter()
        warm = wl.keep(wl.round())
        pooled_wall, pooled_kids = time.perf_counter() - t0, _children_cpu_seconds() - k0
    finally:
        if base is not None:
            simulate.ProcessPoolExecutor = base

    with tracer:
        trace_layers(tracer)
        first = len(tracer.spans)
        t0 = time.perf_counter()
        out = wl.round(serial=True)
        t1 = time.perf_counter()
    traced = wl.keep(out)
    del out

    attempted, failed, problems = _checked(wl, [warm, traced])

    stats = summarize(tracer.spans, first, group_prefixes=("truth.",))
    sampling = summarize(tracer.spans, 0, setup_end).get("simulate.sample_lbrc", {})
    traced_wall = t1 - t0
    coverage = covered_seconds(tracer.spans, first, t0, t1) / traced_wall
    if coverage < MIN_COVERAGE:
        problems.append(f"named spans cover {coverage:.3f} of the traced round, "
                        f"less than {MIN_COVERAGE}")
    special = {
        "simulate.sample_lbrc.setup_calls": sampling.get("calls", 0),
        "simulate.sample_lbrc.setup_busy_s": sampling.get("busy_s", 0.0),
        "quadrature.density_evals": sum(
            stats.get(k, {}).get("density_evals", 0)
            for k in ("quadrature.SmoothCumulative.query", "quadrature.SmoothCumulative.build")
        ),
        "simulate.pool.workers": pool["workers"],
        "simulate.pool.tasks": pool["tasks"],
        "simulate.pool.cpu_util": (pooled_kids / (pooled_wall * pool["workers"])
                                   if pool["workers"] else 0.0),
        "simulate.pool.speedup": traced_wall / pooled_wall if pool["workers"] else 0.0,
        "trace.wall_s": traced_wall,
        "trace.coverage": coverage,
        "trace.overhead_est": (len(tracer.spans) - first) * span_cost_seconds() / traced_wall,
        "trace.spans": len(tracer.spans) - first,
    }
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        else:
            key, _, stat = name.rpartition(".")
            metrics[name] = stats.get(key, {}).get(stat, 0)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with trace_path.open("w", encoding="utf-8") as fh:
        json.dump({
            "provenance": prov,
            "traced_round": {"first_span": first, "start": t0, "end": t1},
            "warmup_wall_s": pooled_wall,
            "span_fields": ["name", "parent", "start", "end", "attrs"],
            "spans": tracer.spans,
        }, fh)
    detail = {"trace_file": str(trace_path), "warmup_wall_s": pooled_wall,
              "traced_serial_wall_s": traced_wall}
    return metrics, attempted, failed, problems, detail


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    import workloads

    cfg = (workloads.SMOKE if smoke else workloads.FULL)[workload]
    prov = provenance(workload, seed, cfg, workloads.versions())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[workload](cfg, seed, work)
        if trace:
            trace_path = WORK / "traces" / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.json"
            result = run_traced(wl, trace_path, prov)
        else:
            # the self-test needs one round and one set-up, not steady figures
            result = run_untraced(wl, seconds, 1 if smoke else MIN_ROUNDS,
                                  1 if smoke else SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return prov, result


def _report(prov, result, trace: bool) -> dict:
    metrics, attempted, failed, problems, detail = result
    units = {n: u for n, u, _ in PER_LAYER} if trace else END_TO_END
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# detail " + json.dumps(detail))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<52} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def smoke() -> int:
    """All three workloads at tiny sizes, untraced and traced, checks included;
    the metric lists here equal to those in BENCHMARK.json; every metric in
    ``MOST_WORK`` above 0 on its workload."""
    import workloads

    ok = True
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text(encoding="utf-8"))
        listed = {(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
        here = set(END_TO_END.items()) | {(n, u) for n, u, _ in PER_LAYER}
        if listed != here:
            print(f"BENCHMARK.json and run.py disagree on metrics: {sorted(listed ^ here)}",
                  file=sys.stderr)
            ok = False
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            _, result = run(name, seed=20250101, seconds=0.0, trace=trace, smoke=True)
            metrics, attempted, failed, problems, _ = result
            expected = [n for n, _, _ in PER_LAYER] if trace else list(END_TO_END)
            missing = [n for n in expected if n not in metrics]
            if trace:
                missing += [n for n in MOST_WORK[name] if not metrics.get(n, 0) > 0]
            good = not problems and failed == 0 and attempted > 0 and not missing
            print(f"smoke {name:<16} trace={int(trace)} attempted={attempted} failed={failed} "
                  f"{'ok' if good else 'FAILED'}")
            for problem in problems + [f"metric {n} missing or 0" for n in missing]:
                print(f"  {problem}", file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ladder-rn2", "cli-intervals", "oracle-subjects"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of all workloads")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "lbrc" / "__init__.py").is_file():
        print(f"error: no lbrc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.smoke:
        return smoke()
    prov, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = _report(prov, result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
