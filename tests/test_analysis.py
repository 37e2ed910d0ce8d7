"""The shared analysis context: every C_X(d), dual and staircase layer is
built once, and what is cached cannot change under its readers."""

import collections
import dataclasses
import random
import sys

import pytest

from rmcode import codes, duality, groebner
from rmcode.analysis import Analysis, AnalysisRequest, analyze_text
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry, run_entry
from rmcode.groebner import GroebnerBasis, standard_monomials_upto
from rmcode.polyring import GREVLEX, TermOrder, monomial_divides, monomials_of_degree
from rmcode.variety import PointSet, format_points, points_parse, points_torus, vanishing_ideal

EVERY_FLAG = AnalysisRequest(
    duality=True,
    gorenstein=True,
    selfdual=True,
    weights=True,
    footprint_matrix=True,
    ghw_cells=((1, 1), (2, 2)),
)


def _rebind(monkeypatch, fn, replacement):
    """Route every rmcode binding of ``fn`` through ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name == "rmcode" or name.startswith("rmcode."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_calls(monkeypatch, fn, key):
    """Route every rmcode binding of ``fn`` through a counter by ``key``."""
    counts = collections.Counter()

    def counted(*args):
        counts[key(*args)] += 1
        return fn(*args)

    _rebind(monkeypatch, fn, counted)
    return counts


def _track(monkeypatch, *fns):
    """Route every rmcode binding of each of ``fns`` through a wrapper that
    records it while it runs; returns a key function naming the innermost
    one running (None outside all of them)."""
    within = []

    def tracked(fn):
        def wrapped(*args, **kwargs):
            within.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                within.pop()

        return wrapped

    for fn in fns:
        _rebind(monkeypatch, fn, tracked(fn))
    return lambda *args: within[-1] if within else None


@pytest.mark.parametrize("name", ["projective_plane_f3", "gorenstein_five_points"])
def test_analyze_builds_each_code_and_dual_once(name, monkeypatch):
    built = _count_calls(monkeypatch, codes.code_of_degree, lambda X, gb, d: d)
    duals = _count_calls(monkeypatch, codes.dual_code, id)
    report, _ = analyze_text(load_entry(name)[0], EVERY_FLAG)
    r0 = report["hilbert"]["r0"]
    assert set(built) >= set(range(1, r0 + 1))
    assert max(built.values()) == 1
    assert duals and max(duals.values()) == 1


# four points of P^2(F_5) whose reduced basis under glex has generators of
# degree 4 > r0 + 1 = 3: interpolating only up to r0 + 1 misses them
LATE_GENERATORS = """field 5 1
vars 3
order glex perm=1,2,3
4 0 1
2 4 1
4 1 0
1 3 1
"""


@pytest.mark.parametrize("name", [*CORPUS, "late_generators"])
def test_analyze_runs_no_buchberger(name, monkeypatch):
    """Every ideal of the pipeline comes from the per-degree interpolation:
    the library has no Buchberger algorithm, and term-by-term division runs
    only inside gb_certify."""
    assert not hasattr(groebner, "buchberger")
    text = LATE_GENERATORS if name == "late_generators" else load_entry(name)[0]
    if name == "late_generators":
        A = Analysis(*points_parse(text))
        assert max(g.homogeneous_degree() for g in A.gb.gens) > A.hd.r0 + 1
    calls = collections.Counter()
    certifying = []
    real_certify, real_normal_form = groebner.gb_certify, groebner.normal_form

    def gb_certify(*args):
        calls["gb_certify"] += 1
        certifying.append(True)
        try:
            return real_certify(*args)
        finally:
            certifying.pop()

    def normal_form(*args):
        calls["normal_form", bool(certifying)] += 1
        return real_normal_form(*args)

    _rebind(monkeypatch, real_certify, gb_certify)
    _rebind(monkeypatch, real_normal_form, normal_form)
    report, _ = analyze_text(text, EVERY_FLAG)
    assert "artinian" in report
    assert calls["normal_form", False] == 0
    assert calls["gb_certify"] >= 2  # I(X) and (I(X), h)


def test_selfdual_run_tests_self_orthogonality_once_per_degree(monkeypatch):
    calls = _count_calls(monkeypatch, duality.self_orthogonal, lambda A, d: d)
    req = AnalysisRequest(duality=True, gorenstein=True, selfdual=True)
    report, _ = analyze_text(load_entry("projective_line_f9")[0], req)
    # r0 = 9 and m = 10 = 2 H(4): degree 4 is self-dual, and the Gorenstein
    # classification reads it off the self-dual report
    assert report["hilbert"]["r0"] == 9
    assert report["self_duality"]["self_dual_degrees"] == [4]
    assert report["self_duality"]["gorenstein_classification"][3]["self_dual"]
    assert calls == collections.Counter(range(10))


def test_self_duality_builds_no_dual_and_no_code(monkeypatch):
    """With the codes of the analysis built, the self-dual report, the
    Gorenstein classification and local duality build no dual and no code,
    and the classification evaluates no monomial layer."""
    where = _track(
        monkeypatch,
        duality.self_dual_report,
        duality.gorenstein_selfdual_classify,
        duality.local_duality_verify,
    )
    duals = _count_calls(monkeypatch, codes.dual_code, where)
    layers = _count_calls(monkeypatch, groebner.standard_monomials_upto, where)
    built, evaluated = collections.Counter(), collections.Counter()
    real_from_rows, real_eval = codes.LinearCode.from_rows, PointSet.eval_monomials

    def from_rows(cls, *args, **kwargs):
        built[where()] += 1
        return real_from_rows(*args, **kwargs)

    def eval_monomials(self, monomials):
        evaluated[where()] += 1
        return real_eval(self, monomials)

    monkeypatch.setattr(codes.LinearCode, "from_rows", classmethod(from_rows))
    monkeypatch.setattr(PointSet, "eval_monomials", eval_monomials)
    req = AnalysisRequest(duality=True, gorenstein=True, selfdual=True)
    report, _ = analyze_text(load_entry("projective_line_f9")[0], req)
    assert report["self_duality"]["gorenstein_classification"]
    for name in ("ci_four_points", "affine_plane_f3"):
        res = run_entry(name)
        assert res.passed and "local_duality" in [c for c, _, _ in res.checks]
    inside = {"self_dual_report", "gorenstein_selfdual_classify", "local_duality_verify"}
    assert {"self_dual_report", "local_duality_verify"} <= set(evaluated)
    assert not inside & set(duals) and not inside & set(built)
    assert not {"gorenstein_selfdual_classify"} & (set(layers) | set(evaluated))


def test_certificates_compute_only_what_their_answer_needs(monkeypatch):
    """On the torus in P^2(F_5), whose reduced basis lies in degree 4, a
    duality + gorenstein + selfdual analysis ranks no products for the
    minimal generators, builds one dual inside global_duality (the parity
    check of C_X(r0-1), whose minimum distance it also checks), and builds
    no staircase layer above r0 + 1 inside the self-dual report."""
    X = points_torus(3, Field(5))
    text = format_points(X.field, X.s, X.coords.tolist())
    assert {g.homogeneous_degree() for g in Analysis(X).gb.gens} == {4}
    where = _track(monkeypatch, duality.global_duality, duality.self_dual_report)
    ranks = _count_calls(monkeypatch, groebner._products_rank, where)
    duals = _count_calls(monkeypatch, codes.dual_code, where)
    mdist = _count_calls(monkeypatch, codes.macwilliams, where)
    layers = _count_calls(
        monkeypatch,
        groebner._next_layer,
        lambda layer, *_: (where(), sum(layer[0]) + 1 if layer else 0),
    )
    req = AnalysisRequest(duality=True, gorenstein=True, selfdual=True, budget=0)
    report, _ = analyze_text(text, req)
    r0 = report["hilbert"]["r0"]
    assert report["duality"]["holds"] and r0 == 6
    assert report["vanishing_ideal"]["minimal_generators"] == 2
    assert sum(ranks.values()) == 0
    assert duals["global_duality"] == 1 and mdist["global_duality"] == 1
    assert all(d <= r0 + 1 for where_, d in layers if where_ == "self_dual_report")


def test_cached_codes_are_shared_and_read_only(F3):
    A = Analysis(PointSet(F3, [[1, 0, 1], [0, 1, 1], [1, 1, 1], [2, 1, 1], [0, 0, 1]]))
    C, D = A.code(1), A.dual(1)
    assert A.code(1) is C and A.dual(1) is D and C.dual is D
    for basis in (C.basis, D.basis):
        with pytest.raises(ValueError):
            basis[0, 0] = 1
    assert A.code(-1).dimension == 0 and A.dual(-1).dimension == A.X.m
    assert "_codes" not in repr(A)


def test_groebner_basis_cannot_change_under_its_staircase(F3):
    X = PointSet(F3, [[1, 0, 1], [0, 1, 1], [1, 1, 1], [2, 1, 1]])
    gb = vanishing_ideal(X)
    layers = standard_monomials_upto(gb, 3, 4)
    assert isinstance(gb.gens, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gb.gens = gb.gens + gb.gens
    assert standard_monomials_upto(gb, 3, 2) == layers[:3]
    assert standard_monomials_upto(gb, 3, 4)[4] is layers[4]
    # the staircase is a cache: equality and repr ignore it
    fresh = GroebnerBasis(gb.order, gb.gens, certified=True)
    assert fresh == gb and repr(fresh) == repr(gb)
    assert "_staircase" not in repr(gb)


def _staircase_oracle(gb, s, d):
    leads = gb.leads
    layer = [
        u for u in monomials_of_degree(s, d) if not any(monomial_divides(v, u) for v in leads)
    ]
    return tuple(gb.order.sorted_desc(layer))


def test_staircase_matches_the_monomial_filter():
    """Grown layer by layer, the staircase equals the filter of all degree-d
    monomials by the leading monomials."""
    cases = []
    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        cases += [(X, order or GREVLEX), (X, TermOrder("glex"))]
    rng = random.Random(5)
    for _ in range(12):
        f = Field(rng.choice([2, 3, 5]))
        s = rng.choice([2, 3, 4])
        rows = {tuple(rng.randrange(f.q) for _ in range(s)) for _ in range(9)} - {(0,) * s}
        if len(rows) >= 2:
            cases.append((PointSet(f, sorted(rows), dedup=True), TermOrder("glex")))
    for X, order in cases:
        gb = vanishing_ideal(X, order)
        top = X.m + 2
        layers = standard_monomials_upto(gb, X.s, top)
        for d in range(top + 1):
            assert layers[d] == _staircase_oracle(gb, X.s, d)


def test_hilbert_value_everywhere(F3):
    hd = Analysis(PointSet(F3, [[1, 0, 1], [0, 1, 1], [1, 1, 1], [2, 1, 1]])).hd
    assert [hd.value(d) for d in range(-2, hd.r0 + 3)] == (
        [0, 0] + list(hd.H) + [hd.degree] * 2
    )


def test_zero_ideal_staircase():
    empty = GroebnerBasis(GREVLEX, ())
    assert [len(layer) for layer in standard_monomials_upto(empty, 3, 3)] == [1, 3, 6, 10]
