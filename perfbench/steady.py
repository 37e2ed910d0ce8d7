"""Steadiness report: run the benchmark repeatedly and print, per workload
and metric, the median, the quartiles and their spread.

    python3 perfbench/steady.py [--workload all|certify|mindist|weights]
        [--runs 10] [--seed N]

Each run is ``run.py`` with ``run_seconds`` of ``BENCHMARK.json`` and
tracing off, as the benchmark is run to compare two commits.  Run ``i``
uses seed ``SEEDS[i]``, so the spread mixes run-to-run noise with the
differences between inputs; ``--seed N`` repeats one seed instead, which
leaves the noise alone.  The spread is (Q3 - Q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is shown beside the
metric's bound.  ``error_rate`` is the share of analyses over all runs that
failed or disagreed with the reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(10))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--runs", type=int, default=len(SEEDS))
    ap.add_argument("--seed", type=int, help="repeat this seed in every run")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    if args.seed is None and args.runs > len(SEEDS):
        ap.error(f"--runs must be at most {len(SEEDS)} without --seed")
    seeds = [args.seed] * args.runs if args.seed is not None else SEEDS[:args.runs]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for wl in names:
        results = []
        for seed in seeds:
            res = run_once(wl, seed, bench["run_seconds"])
            results.append(res)
            print(f"# {wl} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{wl}: {args.runs} runs, seeds {' '.join(map(str, seeds))}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  unit")
        for metric, first in results[0]["metrics"].items():
            med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in results])
            print(f"  {metric:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{bounds[metric]:>6}  {first['unit']}")
        print(f"  {'error_rate':40s} {failed / attempted:12.6g} {'':12s} {'':12s} "
              f"{'':8s} {'':6s}  fraction ({failed} of {attempted} analyses)")


if __name__ == "__main__":
    main()
