"""The rmcode benchmark.

    python3 perfbench/run.py --workload certify|mindist|weights \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Inputs come from ``--seed`` (see
``workloads.py``).  Every set-up sample and every pass runs in a fresh
interpreter (``worker.py``), one at a time, so no cache kept across calls
can make a pass look cheaper than a one-shot ``rmcode analyze``.  Passes
repeat until the next one would end after ``--seconds`` (by default
``run_seconds`` of ``BENCHMARK.json``); at least one pass runs.  Set-up
samples are taken at the start and after every pass, so they see the same
machine as the passes.  Every analysis is checked against the stored seed-0 facts
(``check.py``), and the golden inputs once against their golden JSON.

With ``--trace 0`` the metrics are the end-to-end ones: median pass time,
median set-up time and median peak resident set.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer
ones of ``tracing.py``, medians over the traced passes.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 170
# rmcode makes no BLAS call, but importing numpy starts OpenBLAS's thread
# pool, one thread per core; how long that takes depends on what else the
# machine runs, which made set-up times swing by a third between minutes
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def spawn(mode, job, deadline):
    """Run one worker process to completion; its result, or an error string."""
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode],
            input=job,
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
            env=WORKER_ENV,
        )
    except subprocess.TimeoutExpired:
        return f"worker {mode} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"worker {mode} exited {proc.returncode}: {tail}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(result, names, reference, seed, golden):
    """Mismatch lines of one pass, one list per input."""
    from check import compare

    out = []
    for name, got in zip(names, result["facts"]):
        if isinstance(got, str):
            out.append([f"{name}: raised {got}"])
            continue
        bad = compare(reference[name], got, seed)
        if name in golden:
            bad += [f"golden {b}" for b in compare(golden[name], got, 0)]
        out.append([f"{name}: {b}" for b in bad])
    return out


def measure(workload, seed, seconds, trace):
    from check import golden_facts, load_reference
    from workloads import GOLDEN_DIR, WORKLOADS, workload_inputs

    wl = WORKLOADS[workload]
    inputs = workload_inputs(workload, seed)
    names = [name for name, _ in inputs]
    job = json.dumps({"inputs": inputs, "request": wl.request})
    reference = load_reference()[workload]
    # checked once, on the first complete pass
    golden = {
        src.name: golden_facts(json.loads((GOLDEN_DIR / f"{src.name}.json").read_text()))
        for src in wl.sources
        if src.kind == "golden"
    }

    start = time.monotonic()
    hard_deadline = start + CHILD_TIMEOUT_S
    errors = []
    setup = []

    def sample_setup(n):
        for _ in range(n):
            res = spawn("setup", job, hard_deadline)
            if isinstance(res, str):
                errors.append(res)
            else:
                setup.append(res["setup_s"])

    # the first process compiles bytecode and warms the file cache; unmeasured
    sample_setup(1)
    setup.clear()
    sample_setup(SETUP_SAMPLES)

    modes = ["pass", "trace"] if trace else ["pass"]
    runs = {mode: [] for mode in modes}
    last = {}
    attempted = failed = 0
    mismatches = []
    deadline = start + seconds
    i = 0
    while True:
        mode = modes[i % len(modes)]
        t = time.monotonic()
        res = spawn(mode, job, hard_deadline)
        attempted += len(inputs)
        if isinstance(res, str):
            errors.append(res)
            failed += len(inputs)
        else:
            runs[mode].append(res)
            setup.append(res["setup_s"])
            bad = check_pass(res, names, reference, seed, golden)
            golden = {}
            failed += sum(1 for b in bad if b)
            mismatches += [line for b in bad for line in b]
        sample_setup(SETUP_PER_PASS)
        last[mode] = time.monotonic() - t
        i += 1
        nxt = modes[i % len(modes)]
        if i >= len(modes) and time.monotonic() + last.get(nxt, 0.0) > deadline:
            break
        if time.monotonic() > hard_deadline:
            break
    return {
        "setup": setup,
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "mismatches": mismatches,
    }


def end_to_end(m):
    passes = m["runs"]["pass"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(m["setup"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }


def per_layer(m):
    from tracing import PER_LAYER

    traced = m["runs"]["trace"]
    wall = statistics.median(r["wall_s"] for r in m["runs"]["pass"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = traced_wall - wall
        else:
            values = [r["layers"][name] for r in traced]
            # counts stay whole numbers
            ints = all(isinstance(v, int) for v in values)
            value = (statistics.median_low if ints else statistics.median)(values)
        out[name] = (value, unit)
    return out


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rmcode" / "__init__.py").is_file():
        print(f"error: no rmcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]

    m = measure(args.workload, args.seed, args.seconds, args.trace)
    complete = all(m["runs"].values())
    metrics = (per_layer(m) if args.trace else end_to_end(m)) if complete else {}
    error_rate = m["failed"] / m["attempted"]

    npass = {mode: len(r) for mode, r in m["runs"].items()}
    print(f"workload {args.workload}  seed {args.seed}  passes {npass}  "
          f"setup samples {len(m['setup'])}")
    for line in dict.fromkeys(m["errors"] + m["mismatches"]):
        print(f"  FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'error_rate':40s} {error_rate:>16.6g} fraction "
          f"({m['failed']} of {m['attempted']} analyses)")
    if args.trace and complete:
        for line in m["runs"]["trace"][0]["decisions"]:
            print(f"  decision {line}")
    if not complete:
        print("error: no complete pass", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": m["failed"] == 0 and not m["errors"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
