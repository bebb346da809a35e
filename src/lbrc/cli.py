"""Command-line surface: estimate, simulate, rate-experiment, influence.

Exit codes: 0 success, 1 input error (bad CSV, flags, or config, or a file
that cannot be read or written), 2 compute error (refused window or a
numerical failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ComputeError, ConfigError, InvalidDataError, LbrcError, WindowError
from .estimators import fit
from .influence import lil_quantities, make_plugin_context, plugin_variance
from .io import (
    config_hash,
    curve_times,
    parse_censor_rate,
    parse_dataset,
    parse_rate_config,
    write_curve_csv,
    write_dataset_csv,
    write_influence_csv,
    write_rate_report_csv,
)
from .simulate import rate_experiment, sample_lbrc
from .stepfun import EvalGrid
from .truth import FAMILIES, make_model

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lbrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit estimator curves from a CSV dataset")
    est.add_argument("input", help="CSV with columns a,v,delta or a,y,delta")
    est.add_argument(
        "--estimator",
        choices=["huang-qin", "tjw", "both"],
        default="both",
        help="which estimator family to export",
    )
    est.add_argument(
        "--grid",
        default="jumps",
        help="output points: 'jumps' or 'n:<count>' for extra equispaced points",
    )
    est.add_argument("--out", default=".", help="output directory for curve files")

    sim = sub.add_parser("simulate", help="generate a synthetic LBRC dataset CSV")
    sim.add_argument("--family", choices=tuple(FAMILIES), default="exponential")
    sim.add_argument("--rate", type=float, help="exponential lifetime rate")
    sim.add_argument("--shape", type=float, help="weibull shape")
    sim.add_argument("--scale", type=float, help="weibull scale")
    sim.add_argument(
        "--censor-rate", default="0.5", help="residual censoring rate; 'none' or '' for none"
    )
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output CSV path")

    rate = sub.add_parser(
        "rate-experiment", help="run a convergence-rate experiment from a config file"
    )
    rate.add_argument("config", help="flat key=value config file")
    rate.add_argument("--out", default=None, help="report CSV path (overrides config)")
    rate.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: config value, else all cores); "
        "does not affect numerical output",
    )

    infl = sub.add_parser(
        "influence", help="pointwise variance, confidence intervals, and scale curves"
    )
    infl.add_argument("input", help="CSV with columns a,v,delta or a,y,delta")
    infl.add_argument("--level", type=float, default=0.95, help="confidence level")
    infl.add_argument(
        "--grid",
        default="n:20",
        help="evaluation points: 'jumps' (event times) or 'n:<count>'",
    )
    infl.add_argument("--out", required=True, help="output CSV path")
    return parser


def _grid_count(spec: str, least: int):
    """Parse a ``--grid`` token: None for 'jumps', else the count of 'n:<count>'."""
    spec = spec.strip()
    if spec == "jumps":
        return None
    if spec.startswith("n:"):
        try:
            count = int(spec[2:])
        except ValueError:
            raise ConfigError(f"--grid: not an integer: {spec[2:]!r}") from None
        if count < least:
            noun = "point" if least == 1 else "points"
            raise ConfigError(f"--grid: need at least {least} {noun}")
        return count
    raise ConfigError(f"--grid: expected 'jumps' or 'n:<count>', got {spec!r}")


def _cmd_estimate(args) -> int:
    d = parse_dataset(args.input)
    curves = fit(d)
    count = _grid_count(args.grid, least=2)
    extra = None if count is None else np.linspace(0.0, float(d.y.max()), count)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = config_hash(
        {"input": args.input, "estimator": args.estimator, "grid": args.grid}
    )
    exports = []
    if args.estimator in ("huang-qin", "both"):
        exports += [
            ("f_tilde.csv", curves.cdf, "huang-qin-cdf"),
            ("f_bar.csv", curves.cdf_safeguarded, "huang-qin-cdf-safeguarded"),
            ("s_a.csv", curves.entry_survival, "pooled-entry-survival"),
            ("lambda_tilde.csv", curves.combined_cumhaz, "combined-cumulative-hazard"),
        ]
    if args.estimator in ("tjw", "both"):
        exports.append(("f_tjw.csv", curves.tjw_cdf, "tjw-cdf"))
    columns = curve_times([step for _, step, _ in exports], extra)
    for (fname, step, label), times in zip(exports, columns):
        write_curve_csv(out_dir / fname, step, label, d.n, cfg, times)
        print(f"wrote {out_dir / fname}")
    return 0


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    censor = parse_censor_rate("--censor-rate", args.censor_rate)
    params = {k: getattr(args, k) for k in ("rate", "shape", "scale")}
    model = make_model(args.family, censor, **{k: v for k, v in params.items() if v is not None})
    d = sample_lbrc(model, args.n, args.seed)
    write_dataset_csv(args.out, d)
    print(f"wrote {args.out} (n={d.n}, events={d.n_events})")
    return 0


def _cmd_rate(args) -> int:
    cfg = parse_rate_config(args.config)
    threads = args.threads if args.threads is not None else cfg["threads"]
    report = rate_experiment(
        cfg["model"],
        cfg["sizes"],
        cfg["reps"],
        cfg["which"],
        cfg["grid"],
        cfg["seed"],
        threads=threads,
    )
    out = args.out or cfg["out"] or "rate_report.csv"
    write_rate_report_csv(out, report, config_hash(cfg["raw"]))
    for n, med in zip(report.sample_sizes, report.medians):
        print(f"n={int(n)}: median sup residual = {med:.6g}")
    print(f"slope={report.slope:.4f} target={report.target_exponent}")
    print(f"wrote {out}")
    return 0


def _cmd_influence(args) -> int:
    from scipy import special

    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"--level must be in (0, 1), got {args.level}")
    d = parse_dataset(args.input)
    events = np.unique(d.y[d.delta == 1])
    if events.size == 0:
        raise InvalidDataError("no observed events; intervals are undefined")
    events = events[events > 0]  # the evaluation window starts at a positive time
    if events.size == 0:
        raise InvalidDataError("no observed events at positive times; intervals are undefined")
    count = _grid_count(args.grid, least=1)
    pts = events if count is None else np.unique(np.linspace(events.min(), events.max(), count))
    grid = EvalGrid.of_points(pts)

    ctx = make_plugin_context(d, grid)
    cdf_vals = ctx.curves.cdf.at(grid.points)
    var = plugin_variance(ctx)
    se = np.sqrt(var)
    z = float(special.ndtri(0.5 + args.level / 2.0))
    lo = np.clip(cdf_vals - z * se, 0.0, 1.0)
    hi = np.clip(cdf_vals + z * se, 0.0, 1.0)
    lil = lil_quantities(ctx)
    columns = (grid.points, cdf_vals, se, lo, hi, lil.d, lil.v)
    cfg = config_hash({"input": args.input, "level": args.level, "grid": args.grid})
    write_influence_csv(args.out, columns, d.n, args.level, cfg)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and argparse-internal exits
            return int(exc.code or 0)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "rate-experiment":
            return _cmd_rate(args)
        if args.command == "influence":
            return _cmd_influence(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (InvalidDataError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (WindowError, ComputeError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 2
    except LbrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
