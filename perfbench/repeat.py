"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --runs 10                  # every workload
    python3 perfbench/repeat.py --workload cli-intervals --runs 5 --first-seed 100
    python3 perfbench/repeat.py --runs 10 --out .bench_work/set.json

Each run is a separate untraced ``run.py`` process with its own seed
(first-seed, first-seed + 1, ...); traced runs are made with ``run.py``
directly.  For every metric the table gives the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The exit
code is 1 when any run failed its checks or exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["ladder-rn2", "cli-intervals", "oracle-subjects"]


def one_run(workload: str, seed: int, seconds: int) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    prov = next((ln for ln in lines if ln.startswith("# provenance ")), "")
    try:
        return done.returncode, json.loads(lines[-1]), prov
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None, done.stderr[-2000:]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workload or WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        provenance = ""
        for k in range(args.runs):
            seed = args.first_seed + k
            code, line, prov = one_run(workload, seed, args.seconds)
            if line is None or code != 0 or not line["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{prov}", file=sys.stderr)
                if line is None:
                    continue
            provenance = provenance or prov
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in line["metrics"].items()), flush=True)
        stats = {name: {"unit": units[name], **summarize(vals)} for name, vals in per_metric.items()}
        summary[workload] = {
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "attempted": attempted,
            "failed": failed,
            "provenance": json.loads(provenance[len("# provenance "):]) if provenance else None,
            "metrics": stats,
        }
        for name, s in stats.items():
            print(f"  {workload:<16} {name:<48} median {s['median']:>12.6g} {s['unit']:<6} "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
