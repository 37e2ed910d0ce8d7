"""Correctness check of the benchmark's analyses.

``facts`` extracts the checked facts from an ``analyze_text`` report, and
``compare`` checks them against the stored seed-0 reference
(``reference.json``) or against the facts of a golden JSON entry.

At seed 0 every stored fact is compared.  At any other seed the point set
went through a linear change of coordinates, so only the facts that do not
depend on coordinates are: footprint values and self-duality degrees are
skipped.

Regenerate the reference with ``python3 perfbench/check.py`` from the root
of the repository.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

COORDINATE_DEPENDENT = (
    "footprint",
    "weight_footprint",
    "self_dual_degrees",
    "self_orthogonal_degrees",
)


def _cell(c):
    if c["kind"] == "infinity":
        return "inf"
    if c["kind"] == "exact":
        return c["value"]
    return [c["lo"], c["hi"]]


def facts(report):
    """The checked facts of one report, with JSON-compatible keys."""
    hil, codes = report["hilbert"], report["codes"]
    out = {
        "m": report["input"]["m"],
        "H": list(hil["H"]),
        "r0": hil["r0"],
        "h_vector": list(hil["h_vector"]),
        "v_sorted": list(report["indicators"]["v_sorted"]),
        "min_distance": {str(d): v for d, v in codes["min_distance"].items()},
    }
    if "weight_matrix" in codes:
        wm = codes["weight_matrix"]
        out["weight_matrix"] = [[_cell(c) for c in row] for row in wm["cells"]]
        out["weight_footprint"] = wm["footprint"]
    if "footprint" in codes:
        out["footprint"] = {str(d): row for d, row in codes["footprint"].items()}
    if "duality" in report:
        out["duality_holds"] = report["duality"]["holds"]
    if "artinian" in report:
        art = report["artinian"]
        for key in ("gorenstein", "type", "level", "extension_degree"):
            out[key] = art[key]
    if "self_duality" in report:
        sd = report["self_duality"]
        out["self_dual_degrees"] = sd["self_dual_degrees"]
        out["self_orthogonal_degrees"] = sd["self_orthogonal_degrees"]
    return out


def _lo_hi(c):
    return (c[0], c[1]) if isinstance(c, list) else (c, c)


def cell_agrees(ref, got):
    """A weight-matrix cell agrees when both are infinite, or when the exact
    values are equal and any interval contains the other side."""
    if ref == "inf" or got == "inf":
        return ref == got
    (a, b), (c, d) = _lo_hi(ref), _lo_hi(got)
    return max(a, c) <= min(b, d)


def compare(ref, got, seed):
    """Mismatches of ``got`` against ``ref`` as a list of one-line strings."""
    bad = []
    for key, want in ref.items():
        if seed and key in COORDINATE_DEPENDENT:
            continue
        if key not in got:
            bad.append(f"{key}: missing")
            continue
        have = got[key]
        if key == "weight_matrix":
            if [len(row) for row in want] != [len(row) for row in have]:
                bad.append("weight_matrix: shape differs")
                continue
            for d, (wrow, hrow) in enumerate(zip(want, have), start=1):
                for r, (w, h) in enumerate(zip(wrow, hrow), start=1):
                    if not cell_agrees(w, h):
                        bad.append(f"weight_matrix({d},{r}): {h!r} disagrees with {w!r}")
        elif key == "min_distance":
            # exact values and budget_exceeded(N) alike: N is the number of
            # codewords to sweep, which depends only on dim C_X(d) and q
            for d in sorted(want.keys() | have.keys(), key=int):
                if have.get(d) != want.get(d):
                    bad.append(f"min_distance({d}): {have.get(d)!r} != {want.get(d)!r}")
        elif have != want:
            bad.append(f"{key}: {have!r} != {want!r}")
    return bad


def golden_facts(entry):
    """The golden JSON entry's facts, in the form ``facts`` gives them."""
    out = {
        "m": entry["m"],
        "H": entry["H"],
        "r0": entry["r0"],
        "v_sorted": sorted(entry["v_local"]),
    }
    if "h_vector" in entry:
        out["h_vector"] = entry["h_vector"]
    if "min_distance" in entry:
        out["min_distance"] = entry["min_distance"]
    if "weight_matrix" in entry:
        out["weight_matrix"] = entry["weight_matrix"]
    return out


def load_reference():
    return json.loads(REFERENCE.read_text())


def build_reference():
    """Seed-0 facts of every workload input, from the program in ``src``."""
    from rmcode.analysis import AnalysisRequest, analyze_text
    from workloads import WORKLOADS, workload_inputs

    ref = {}
    for name, wl in WORKLOADS.items():
        req = AnalysisRequest(**wl.request)
        ref[name] = {
            src: facts(analyze_text(text, req)[0])
            for src, text in workload_inputs(name, 0)
        }
    return ref


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    ref = build_reference()
    # one line per input keeps the file readable and its diffs small
    lines = [
        f"  {json.dumps(wl)}: {{\n" + ",\n".join(
            f"    {json.dumps(src)}: {json.dumps(f, sort_keys=True)}"
            for src, f in sorted(ref[wl].items())
        ) + "\n  }"
        for wl in sorted(ref)
    ]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE}")
