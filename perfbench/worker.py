"""One measured process of the benchmark; ``run.py`` starts a fresh one per
set-up sample and per pass.

Usage: ``python3 perfbench/worker.py setup|pass|trace`` with a JSON job
``{"inputs": [[name, points text], ...], "request": {...}}`` on stdin.

Set-up is timed from just after the standard-library imports: import
rmcode, read and parse the inputs, construct their fields.  A pass then calls
``analyze_text`` and ``json.dumps`` on each input in turn; ``trace`` does
the same under the span tracer.  The last stdout line is a JSON result.
"""

import json
import resource
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(mode):
    job = json.loads(sys.stdin.read())
    sys.path[:0] = [str(SRC), str(HERE)]
    import rmcode
    from rmcode import analysis
    from rmcode.variety import parse_points_text

    if Path(rmcode.__file__).resolve().parent != SRC / "rmcode":
        raise SystemExit(f"rmcode imported from {rmcode.__file__}, not from {SRC}")
    for _, text in job["inputs"]:
        parse_points_text(text)
    out = {"setup_s": time.perf_counter() - _T0}
    if mode == "setup":
        return out

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer().install()
    req = analysis.AnalysisRequest(**job["request"])
    reports = []
    t = time.perf_counter()
    for _, text in job["inputs"]:
        try:
            report, _ = analysis.analyze_text(text, req)
            json.dumps(report, sort_keys=True, indent=2)
            reports.append(report)
        except Exception as exc:  # a failed analysis is counted, not fatal
            reports.append(f"{type(exc).__name__}: {exc}")
    out["wall_s"] = time.perf_counter() - t
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracing import summarize

        tracer.uninstall()
        out["layers"], out["decisions"] = summarize(tracer.spans)

    from check import facts

    out["facts"] = [r if isinstance(r, str) else facts(r) for r in reports]
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("setup", "pass", "trace"):
        raise SystemExit(__doc__)
    print(json.dumps(main(sys.argv[1])))
