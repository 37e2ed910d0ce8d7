"""Tests of the benchmark's own code: the reference checker, the seeded
input generator and the span tracer."""

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from check import compare, facts, load_reference  # noqa: E402
from tracing import NAME, PARENT, PER_LAYER, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, points_text  # noqa: E402

from rmcode.analysis import AnalysisRequest, analyze_text  # noqa: E402

REFERENCE = load_reference()


def _source(workload, name):
    return next(s for s in WORKLOADS[workload].sources if s.name == name)


def test_checker_flags_wrong_min_distance():
    exact = REFERENCE["mindist"]["projective_p2_f3"]
    over_budget = REFERENCE["certify"]["torus_p2_f9"]
    assert over_budget["min_distance"]["2"].startswith("budget_exceeded(")
    for ref, wrong in (
        (exact, exact["min_distance"]["2"] + 1),
        (over_budget, 3),
        (over_budget, "budget_exceeded(1)"),
    ):
        assert compare(ref, copy.deepcopy(ref), seed=0) == []
        got = copy.deepcopy(ref)
        got["min_distance"]["2"] = wrong
        for seed in (0, 7):
            bad = compare(ref, got, seed)
            assert len(bad) == 1 and bad[0].startswith("min_distance(2)")


def test_checker_flags_interval_excluding_reference():
    ref = REFERENCE["weights"]["ten_points_p2_f3"]
    value = ref["weight_matrix"][2][1]
    assert isinstance(value, int)
    inside = copy.deepcopy(ref)
    inside["weight_matrix"][2][1] = [value - 1, value + 1]
    assert compare(ref, inside, seed=3) == []
    outside = copy.deepcopy(ref)
    outside["weight_matrix"][2][1] = [value + 1, value + 3]
    bad = compare(ref, outside, seed=3)
    assert len(bad) == 1 and bad[0].startswith("weight_matrix(3,2)")


def test_nonzero_seed_keeps_invariant_facts():
    for name in ("projective_p2_f3", "torus_p2_f4"):
        src = _source("mindist", name)
        text = points_text(src, 11)
        assert text != points_text(src, 0)
        assert text == points_text(src, 11)
        got = facts(analyze_text(text, AnalysisRequest())[0])
        assert compare(REFERENCE["mindist"][name], got, seed=11) == []


def test_self_time_of_synthetic_span_tree():
    spans = [
        ["a", -1, 0.0, 10.0, None],
        ["b", 0, 1.0, 4.0, None],
        ["c", 1, 2.0, 3.0, None],
        ["d", 0, 5.0, 9.0, None],
        ["b", -1, 11.0, 12.5, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    layers, _ = summarize(spans)
    assert layers["codes.min_distance_s"] == 0.0


def test_tracer_reaches_name_imported_calls_and_restores_them():
    from rmcode import analysis, codes, duality
    from rmcode.gf import Field

    before = (analysis.min_distance, duality.min_distance, codes.min_distance)
    tracer = Tracer().install()
    try:
        analysis.analyze_text(points_text(_source("mindist", "torus_p2_f4"), 0))
        assert Field(2, 2) == Field(2, 2)
    finally:
        tracer.uninstall()
    assert (analysis.min_distance, duality.min_distance, codes.min_distance) == before
    spans = tracer.spans
    md = [sp for sp in spans if sp[NAME] == "codes.min_distance"]
    assert len(md) == 4
    assert all(spans[sp[PARENT]][NAME] == "analysis.analyze_text" for sp in md)
    layers, _ = summarize(spans)
    assert layers["codes.min_distance_calls"] == 4
    assert layers["gf.fields_built"] >= 1
    assert layers["codes.min_distance_early_exits"] == 1


def test_benchmark_json_lists_what_the_benchmark_measures():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert set(REFERENCE) == set(WORKLOADS)
