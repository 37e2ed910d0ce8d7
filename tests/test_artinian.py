import itertools
import json
import random

import numpy as np
import pytest

from elimination_oracle import artinian_steps_fixed_rows, solve
from gf_oracle import table_matmul
from groebner_oracle import buchberger
from rmcode import artinian, linalg, variety
from rmcode.analysis import Analysis, AnalysisRequest, analyze_text
from rmcode.artinian import (
    _avoids_all,
    _extension_field,
    _first_regular_form,
    _least_extension_degree,
    _linear_form,
    artinian_reduce,
    classify,
    find_regular_linear_form,
    socle,
    verify_socle_identities,
)
from rmcode.codes import LinearCode
from rmcode.errors import (
    IdentityViolated,
    InternalInconsistency,
    NotGorenstein,
    NotRegular,
    RMCodeError,
    Unsupported,
)
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import normal_form, standard_monomials_upto
from rmcode.polyring import GREVLEX, Poly, TermOrder, parse_monomial, parse_poly
from rmcode.variety import (
    PointSet,
    format_points,
    points_full_projective,
    points_parse,
    points_torus,
)


def _candidate_forms(field, s):
    """Oracle: every normalized linear form in preference order, t_s, then
    the other single variables, then general forms with first nonzero
    coefficient 1."""
    single = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    yield single[s - 1]
    for j in range(s - 1):
        yield single[j]
    for lead in range(s):
        for rest in itertools.product(range(field.q), repeat=s - 1 - lead):
            coeffs = (0,) * lead + (1,) + rest
            if sum(1 for c in coeffs if c) >= 2:
                yield coeffs


def _oracle_form(X):
    return next((c for c in _candidate_forms(X.field, X.s) if _avoids_all(X, c)), None)


def test_pruned_search_matches_the_full_scan():
    """The depth-first search finds the same first regular form as the
    full scan, or none when the scan finds none."""
    rng = random.Random(20)
    fields = [Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(3, 2)]
    checked = found = 0
    for _ in range(240):
        F = rng.choice(fields)
        s = rng.randint(2, 4)
        pts = {tuple(rng.randrange(F.q) for _ in range(s)) for _ in range(rng.randint(2, 12))}
        pts.discard((0,) * s)
        try:
            X = PointSet(F, sorted(pts), dedup=True)
        except Exception:
            continue
        want = _oracle_form(X)
        assert _first_regular_form(X) == want
        checked += 1
        found += want is not None
    assert checked >= 200 and 0 < found < checked


def _recursive_first_regular_form(X):
    """Oracle: the depth-first search that recurses over all q values of
    every coordinate, the last one included."""
    f, s, P = X.field, X.s, X.coords
    for j in (s - 1, *range(s - 1)):
        single = tuple(int(i == j) for i in range(s))
        if _avoids_all(X, single):
            return single
    settled = [~np.any(P[:, j + 1 :], axis=1) for j in range(s)]

    def search(coeffs, vals):
        j = len(coeffs) - 1
        if np.any(vals[settled[j]] == 0):
            return None
        if j == s - 1:
            return tuple(coeffs)
        for c in range(f.q):
            nxt = f.add_arr(vals, f.mul_arr(c, P[:, j + 1])) if c else vals
            hit = search(coeffs + [c], nxt)
            if hit is not None:
                return hit
        return None

    for lead in range(s):
        hit = search([0] * lead + [1], P[:, lead])
        if hit is not None:
            return hit
    return None


def _scalar_extensions(X):
    """X and its lifts to F_{q^e} up to the first e with a regular form."""
    workX, e = X, 1
    while True:
        yield workX
        if _recursive_first_regular_form(workX) is not None:
            return
        e += 1
        workX = X.lift(_extension_field(X.field, e))


def test_last_coefficient_read_at_once_matches_the_recursive_search():
    """The search that reads the last coefficient off the roots finds the
    form the full recursion finds, on the corpus and on random sets over
    prime and extension fields, scalar extensions included."""
    sets = [points_parse(load_entry(name)[0])[0] for name in CORPUS]
    rng = random.Random(31)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]
    for trial in range(70):
        F = fields[trial % len(fields)]
        s = rng.randint(2, 4)
        pts = {tuple(rng.randrange(F.q) for _ in range(s)) for _ in range(rng.randint(2, 16))}
        pts.discard((0,) * s)
        if pts:
            sets.append(PointSet(F, sorted(pts), dedup=True))
    extended = 0
    for X in sets:
        for workX in _scalar_extensions(X):
            assert _first_regular_form(workX) == _recursive_first_regular_form(workX)
            extended += workX is not X
    assert len(sets) >= 75 and extended >= 10


def test_regular_form_over_a_large_prime_field():
    F = Field(2**31 - 1)
    X = PointSet(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]])
    # single variables vanish at a frame point; t1 + c*t3 vanishes at (0:1:0)
    # and t1 + t2 at (0:0:1)
    coeffs = _first_regular_form(X)
    assert coeffs == (1, 1, 1) and _avoids_all(X, coeffs)


def test_find_regular_form_prefers_last_variable(nine_points, F3):
    X = nine_points.X
    h, e, workX = find_regular_linear_form(X)
    assert e == 1 and h == parse_poly(F3, 3, "t3")


def test_both_printed_forms_are_regular(five_points_socle, F3):
    X = five_points_socle.X
    for text in ("t1+t4", "t4"):
        h = parse_poly(F3, 4, text)
        assert np.all(X.eval_polys([h]))


def test_projective_line_f3_needs_extension(F3):
    X = points_full_projective(2, F3)
    # oracle: every normalized linear form over F_3 hits one of the 4 points
    for a in range(3):
        for b in range(3):
            if a == 0 and b == 0:
                continue
            vals = [F3.add(F3.mul(a, int(p)), F3.mul(b, int(q))) for p, q in X.coords]
            assert 0 in vals
    h, e, bigX = find_regular_linear_form(X)
    assert e == 2 and bigX.field.q == 9
    assert np.all(bigX.eval_polys([h]))


def _search_every_degree(X):
    """Oracle: the search over F_{q^e} for e = 1, 2, ... until a form is
    found, as (e, coefficients over F_{q^e})."""
    e, workX = 1, X
    while True:
        coeffs = _first_regular_form(workX)
        if coeffs is not None:
            return e, _linear_form(workX.field, X.s, coeffs)
        e += 1
        workX = X.lift(_extension_field(X.field, e))


def _full_space(q, s):
    p = next(p for p in (2, 3, 5, 7) if q % p == 0)
    return points_full_projective(s, Field(p, round(np.log(q) / np.log(p))))


def test_counted_degree_finds_the_form_of_the_search_from_degree_one():
    """The degree and h of the counted search equal the search from e = 1
    on the corpus, on full spaces P^(s-1)(F_q), on a full space less one
    point, and on seeded random subsets of every size."""
    sets = [points_parse(load_entry(name)[0])[0] for name in CORPUS]
    spaces = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
              (5, 2), (5, 3), (7, 2), (9, 2))
    for q, s in spaces:
        full = _full_space(q, s)
        sets += [full, PointSet(full.field, full.coords[1:])]
    rng = random.Random(26)
    for q, s in ((2, 3), (2, 4), (3, 3), (4, 3), (5, 3), (3, 2), (7, 2)):
        full = _full_space(q, s)
        for _ in range(6):
            rows = rng.sample(range(full.m), rng.randint(2, full.m))
            sets.append(PointSet(full.field, full.coords[sorted(rows)]))
    degrees = []
    for X in sets:
        h, e, workX = find_regular_linear_form(X)
        assert (e, h) == _search_every_degree(X)
        assert workX.field == h.field and np.all(workX.eval_polys([h]))
        assert _least_extension_degree(X) <= e
        degrees.append(e)
    # a full space needs e = s, a full space less one point e = s - 1
    n = len(CORPUS)
    assert degrees[n : n + 2 * len(spaces)] == [e for _, s in spaces for e in (s, s - 1)]
    assert len(sets) == n + 2 * len(spaces) + 42
    assert sum(e > 1 for e in degrees[n + 2 * len(spaces) :]) >= 10


def test_counted_degree_past_the_table_limit_raises_as_the_search_does():
    """P^1(F_37) needs F_{37^2}, beyond the table fields: the counted
    search goes there at once and raises what the search from e = 1
    raises."""
    X = points_full_projective(2, Field(37))
    assert _least_extension_degree(X) == 2
    with pytest.raises(Unsupported) as want:
        _search_every_degree(X)
    with pytest.raises(Unsupported) as got:
        find_regular_linear_form(X)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "make,s,p,k",
    [(points_torus, 3, 3, 2), (points_full_projective, 3, 7, 1),
     (points_full_projective, 4, 3, 1)],
)
def test_report_is_the_same_with_table_products(make, s, p, k, monkeypatch):
    """The certificates of the torus in P^2(F_9), of P^2(F_7) over F_343
    and of P^3(F_3) over F_81 are the same when every extension-field
    product takes one table gather per inner index."""
    F = Field(p, k)
    X = make(s, F)
    text = format_points(F, s, [[int(x) for x in row] for row in X.coords])
    req = AnalysisRequest(duality=True, gorenstein=True, selfdual=True, budget=0)
    slices = []
    matmul, slice_matmul = Field.matmul, Field._slice_matmul

    def spy(self, a, b):
        slices.append(self.q)
        return slice_matmul(self, a, b)

    monkeypatch.setattr(Field, "_slice_matmul", spy)
    want = json.dumps(analyze_text(text, req), sort_keys=True)
    assert slices  # the slice route ran
    monkeypatch.setattr(
        Field,
        "matmul",
        lambda self, a, b: table_matmul(self, a, b) if self.k > 1 else matmul(self, a, b),
    )
    slices.clear()
    assert json.dumps(analyze_text(text, req), sort_keys=True) == want
    assert not slices


def test_artinian_reduce_by_last_variable(five_points_frame, F3):
    gb, hd = five_points_frame.gb, five_points_frame.hd
    red = artinian_reduce(five_points_frame, parse_poly(F3, 4, "t4"))
    assert red.basis.certified
    assert red.basis.gens == buchberger(gb.gens + (parse_poly(F3, 4, "t4"),), gb.order).gens
    assert tuple(len(red.layer(e)) for e in range(hd.r0 + 1)) == hd.h_vector
    assert red.layer(hd.r0 + 1) == []


def test_artinian_reduce_general_form(five_points_socle, F3):
    hd = five_points_socle.hd
    red = artinian_reduce(five_points_socle, parse_poly(F3, 4, "t1+t4"))
    per = standard_monomials_upto(red.basis, 4, hd.r0 + 1)
    assert tuple(len(p) for p in per[: hd.r0 + 1]) == (1, 3, 1)
    assert per[hd.r0] == (parse_monomial(4, "t3*t4"),)
    assert [tuple(red.layer(e)) for e in range(hd.r0 + 2)] == list(per)


def test_artinian_reduce_two_points(F3):
    X = PointSet(F3, [[1, 1], [0, 1]])
    red = artinian_reduce(Analysis(X), parse_poly(F3, 2, "t2"))
    per = standard_monomials_upto(red.basis, 2, 2)
    assert per[0] == ((0, 0),) and per[1] == ((1, 0),) and per[2] == ()


def test_artinian_reduce_rejects_zero_divisor(nine_points, F3):
    with pytest.raises(NotRegular):
        artinian_reduce(nine_points, parse_poly(F3, 3, "t1"))


def test_socle_five_points(five_points_socle, F3):
    cls = classify(five_points_socle, h=parse_poly(F3, 4, "t1+t4"))
    assert cls.gorenstein and cls.type_ == 1 and cls.level
    assert cls.socle_monomial == parse_monomial(4, "t3*t4")
    assert [g.to_str() for _, g in cls.socle] == ["t3*t4"]
    rep = verify_socle_identities(five_points_socle, cls)
    # remainders are nonzero multiples of the socle monomial
    assert all(lam != 0 for lam in rep["lambdas"])
    assert rep["lambdas"] == [F3.parse_element(t) for t in ("-1", "-1", "1", "1", "1")]


def test_socle_four_points_essential_contains_top_monomial(four_points):
    cls = classify(four_points)
    assert cls.gorenstein
    assert cls.socle_monomial in set(four_points.isx.essential)
    rep = verify_socle_identities(four_points, cls)
    assert rep["special_form"]


def test_socle_five_points_auto_h(five_points_socle, F3):
    cls = classify(five_points_socle)
    assert cls.h == parse_poly(F3, 4, "t4")
    assert cls.gorenstein and cls.type_ == 1 and cls.s_number == five_points_socle.hd.r0
    rep = verify_socle_identities(five_points_socle, cls)
    assert rep["special_form"]  # exercises the t_s-form identities
    assert rep["lambdas"] == [1] * 5


def test_socle_identity_4_reads_the_staircase(five_points_socle, monkeypatch):
    """A staircase whose degree-(r0 + 1) layer lost the t_s-multiples of the
    standard monomials trips identity (4)."""
    cls = classify(five_points_socle)
    r0 = five_points_socle.hd.r0
    staircase = artinian.standard_monomials_upto

    def truncated(gb, s, dmax):
        layers = list(staircase(gb, s, dmax))
        layers[r0 + 1] = ()
        return layers

    monkeypatch.setattr(artinian, "standard_monomials_upto", truncated)
    with pytest.raises(IdentityViolated, match="left the footprint"):
        verify_socle_identities(five_points_socle, cls)


def test_socle_plane_f3(plane_f3):
    cls = classify(plane_f3)
    assert not cls.gorenstein
    assert cls.type_ == 2 and not cls.level
    assert cls.s_number == 3 and cls.socle_degrees == [3, 5]
    assert cls.extension_degree == 3  # no avoiding line exists over F_9 either
    with pytest.raises(NotGorenstein):
        verify_socle_identities(plane_f3, cls)


def test_socle_maximal_ideal_guard(F3):
    J = buchberger([parse_poly(F3, 2, "t1"), parse_poly(F3, 2, "t2")], GREVLEX)
    soc, top = _socle_by_division(J, 2)
    assert [e for e, _ in soc] == [0] and top == 0


def test_socle_rejects_positive_dimension(F3):
    J = buchberger([parse_poly(F3, 3, "t1"), parse_poly(F3, 3, "t2^2")], GREVLEX)
    with pytest.raises(NotArtinian):
        _socle_by_division(J, 3)


def test_extension_invariance(five_points_frame, F3):
    """Classifying after a forced scalar extension gives the same verdicts."""
    X = five_points_frame.X
    base = classify(five_points_frame)
    big = Field(3, 2)
    bigX = X.lift(big)
    hpoly = next(
        _linear_form(big, X.s, c)
        for c in _candidate_forms(big, X.s)
        if _avoids_all(bigX, c)
    )
    red = artinian_reduce(five_points_frame, hpoly)
    soc, top, type_, level, gorenstein, s_number = socle(red)
    assert (type_, level, gorenstein, s_number) == (
        base.type_,
        base.level,
        base.gorenstein,
        base.s_number,
    )


def test_ci_implies_gorenstein(four_points, nine_points):
    from rmcode.groebner import minimal_generator_count

    for A in (four_points, nine_points):
        if minimal_generator_count(A.gb, A.hd.r0) == A.X.s - 1:
            assert classify(A).gorenstein


def test_level_symmetric_consistency(plane_f3, five_points_frame):
    """level + symmetric h-vector forces Gorenstein; the classifier enforces
    it as an internal trap, so classified instances must satisfy it."""
    for A in (plane_f3, five_points_frame):
        cls = classify(A)
        if cls.level and A.hd.symmetric:
            assert cls.gorenstein


# -- the term-by-term oracles ---------------------------------------------------


class NotArtinian(RMCodeError):
    pass


def _reduction_by_buchberger(A, cls):
    """Oracle: the reduced basis of (I(X), h) by Buchberger on the basis of
    I(X), mapped coefficientwise into the field of h, plus h."""
    gb, big = A.gb, cls.h.field
    table = A.X.field.embedding_into(big)
    return buchberger([_map_field(g, big, table) for g in gb.gens] + [cls.h], gb.order)


def _map_field(g, big, table):
    """The coefficientwise image of g under an embedding code table."""
    return Poly(big, g.nvars, {u: int(table[c]) for u, c in g.terms.items()})


def _socle_by_division(J, nvars):
    """Oracle: the socle of S/J for any basis J of an Artinian ideal, each
    multiplication map read from normal forms computed term by term.
    Returns the (degree, polynomial) pairs and the top degree."""
    f = J.field
    leads = J.leads
    bound = 0  # no standard monomial has degree above sum_i (a_i - 1)
    for i in range(nvars):
        pure = [
            u[i] for u in leads if all(e == 0 for j, e in enumerate(u) if j != i)
        ]
        if not any(pure):
            raise NotArtinian(f"no pure power of t{i + 1} in the initial ideal")
        bound += min(a for a in pure if a) - 1
    per_degree = standard_monomials_upto(J, nvars, bound + 1)
    top = max((d for d, layer in enumerate(per_degree) if layer), default=-1)
    if top < 0:
        raise NotArtinian("unit ideal")
    out = []
    for e in range(top + 1):
        basis_e = per_degree[e]
        basis_e1 = per_degree[e + 1] if e + 1 <= top else []
        index_e1 = {u: i for i, u in enumerate(basis_e1)}
        rows = []
        for var in range(nvars):
            shift = tuple(int(i == var) for i in range(nvars))
            M = np.zeros((len(basis_e1), len(basis_e)), dtype=np.int64)
            for col, u in enumerate(basis_e):
                prod = Poly.monomial(f, nvars, tuple(a + b for a, b in zip(u, shift)))
                rem = normal_form(prod, J)
                for w, c in rem.terms.items():
                    M[index_e1[w], col] = c
            rows.append(M)
        stacked = np.concatenate(rows, axis=0)
        if stacked.shape[0] == 0:
            kernel = np.eye(len(basis_e), dtype=np.int64)
        else:
            kernel = linalg.nullspace(f, stacked)
        for vec in kernel:
            terms = {u: int(c) for u, c in zip(basis_e, vec) if c}
            out.append((e, Poly(f, nvars, terms)))
    return out, top


def _random_analysis_sets(count, seed):
    rng = random.Random(seed)
    fields = [Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(2, 3), Field(3, 2)]
    out = []
    while len(out) < count:
        F = rng.choice(fields)
        s = rng.choice([2, 3, 4] if F.q <= 3 else [2, 3])
        pts = {tuple(rng.randrange(F.q) for _ in range(s)) for _ in range(rng.randint(2, 12))}
        pts.discard((0,) * s)
        try:
            out.append(PointSet(F, sorted(pts), dedup=True))
        except Exception:
            continue
    return out


def _orders_for(s):
    return (GREVLEX, TermOrder("glex"), TermOrder("glex", tuple(range(s, 0, -1))))


def _assert_reduction_matches_oracles(A):
    """J, its staircase, the socle and the lambdas of ``classify`` equal the
    Buchberger and term-by-term oracles; returns the classification."""
    cls = classify(A)
    J = _reduction_by_buchberger(A, cls)
    s = A.X.s
    assert cls.J_basis.certified and cls.J_basis.gens == J.gens
    top = A.hd.r0
    oracle_layers = standard_monomials_upto(J, s, top + 1)
    assert [tuple(cls.reduction.layer(e)) for e in range(top + 2)] == list(oracle_layers)
    assert len(cls.reduction.steps) == top + 2
    soc, oracle_top = _socle_by_division(J, s)
    assert oracle_top == top and cls.socle == soc
    if cls.gorenstein:
        lambdas = verify_socle_identities(A, cls)["lambdas"]
        table = A.X.field.embedding_into(J.field)
        rems = [normal_form(_map_field(fi, J.field, table), J) for fi in A.isx.fs]
        assert all(set(r.terms) == {cls.socle_monomial} for r in rems)
        assert lambdas == [r.terms[cls.socle_monomial] for r in rems]
    return cls


@pytest.mark.parametrize("name", CORPUS)
def test_reduction_matches_oracles_on_corpus(name):
    X, order = points_parse(load_entry(name)[0])
    for o in {order or GREVLEX, *_orders_for(X.s)}:
        _assert_reduction_matches_oracles(Analysis(X, o))


def test_reduction_matches_oracles_on_random_sets():
    """60 seeded sets over F_2..F_9 under grevlex, glex and reversed glex,
    with Gorenstein and non-Gorenstein quotients and scalar extensions."""
    kinds = set()
    for X in _random_analysis_sets(60, 606):
        for order in _orders_for(X.s):
            cls = _assert_reduction_matches_oracles(Analysis(X, order))
            kinds.add((cls.gorenstein, cls.extension_degree > 1, X.field.k > 1))
    assert {g for g, _, _ in kinds} == {True, False}
    assert any(e for _, e, _ in kinds) and any(k for _, _, k in kinds)


# -- the fixed-rows oracle ------------------------------------------------------


def _assert_steps_match_the_fixed_rows_oracle(X, order, h):
    """Every step of ``artinian_reduce`` equals the step that eliminates
    the rows of h*C_X(e-1) again from scratch."""
    workX = X if h.field == X.field else X.lift(h.field)
    steps = artinian_reduce(Analysis(X, order), h).steps
    want = artinian_steps_fixed_rows(workX, order, h)
    assert len(steps) == len(want)
    for (cands, std, nf), (cands0, std0, nf0, _) in zip(steps, want):
        assert cands == cands0 and std == std0
        assert nf.shape == nf0.shape and np.array_equal(nf, nf0)


@pytest.mark.parametrize("name", CORPUS)
def test_reduction_steps_match_the_fixed_rows_oracle_on_corpus(name):
    X, _ = points_parse(load_entry(name)[0])
    h, _, _ = find_regular_linear_form(X)
    for order in (GREVLEX, TermOrder("glex")):
        _assert_steps_match_the_fixed_rows_oracle(X, order, h)


def test_reduction_steps_match_the_fixed_rows_oracle_on_random_sets():
    """Seeded sets under grevlex and glex, each with its first regular form,
    which for a fifth of them needs a scalar extension, and with a random
    regular form over the field the form lives in."""
    rng = random.Random(1093)
    lifted = 0
    sets = _random_analysis_sets(60, 1093)
    for X in sets:
        h, e, workX = find_regular_linear_form(X)
        lifted += e > 1
        forms = [h]
        coeffs = [rng.randrange(workX.field.q) for _ in range(X.s)]
        if _avoids_all(workX, coeffs):
            forms.append(_linear_form(workX.field, X.s, coeffs))
        for order in (GREVLEX, TermOrder("glex")):
            for form in forms:
                _assert_steps_match_the_fixed_rows_oracle(X, order, form)
    assert lifted >= 10


def test_artinian_reduce_eliminates_at_most_m_pivots(monkeypatch):
    """With the codes C_X(0), ..., C_X(r0) of the Analysis built, degree e
    finds its h_e standard monomials with h_e pivots, so a reduction takes
    m pivots in all; eliminating h*C_X(e-1) at every degree would add the
    sum of H(e-1) over e."""
    kernel = linalg.rref
    counted = []

    def counting(field, mat):
        R, pivots = kernel(field, mat)
        counted.append(len(pivots))
        return R, pivots

    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        A = Analysis(X, order or GREVLEX)
        A.isx
        h, _, _ = find_regular_linear_form(X)
        counted.clear()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", counting)
            patch.setattr(variety, "rref", counting)
            artinian_reduce(A, h)
        assert sum(counted) == X.m


def _lambdas_by_solve(A, cls):
    """Oracle: the lambdas of the socle identities by one m x m solve
    against the degree-r0 rows of the fixed-rows reduction, h*C_X(r0-1)
    followed by ev(t^a), for the last unit vector."""
    X, F = A.X, cls.h.field
    workX = X if F == X.field else X.lift(F)
    rows = artinian_steps_fixed_rows(workX, A.order, cls.h)[A.hd.r0][3]
    w = solve(F, rows, np.eye(X.m, dtype=np.int64)[-1])
    values = X.field.embedding_into(F)[A.isx.values] if F != X.field else A.isx.values
    return [F.mul(int(v), int(c)) for v, c in zip(values, w)]


def test_socle_lambdas_match_the_solve_route():
    """lambda_i = f_i(P_i)*w_i read off the parity-check vector beta equals
    the solve against the rows of C_X(r0) on the golden corpus and on
    seeded Gorenstein sets under grevlex and glex, extensions included."""
    analyses = []
    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        analyses += [Analysis(X, o) for o in {order or GREVLEX, TermOrder("glex")}]
    for X in _random_analysis_sets(60, 1871):
        analyses += [Analysis(X, o) for o in (GREVLEX, TermOrder("glex"))]
    checked = extended = 0
    for A in analyses:
        cls = classify(A)
        if not cls.gorenstein:
            continue
        assert verify_socle_identities(A, cls)["lambdas"] == _lambdas_by_solve(A, cls)
        checked += 1
        extended += cls.extension_degree > 1
    assert checked >= 40 and extended >= 5


def test_socle_identities_need_a_one_dimensional_parity_space(five_points_socle, monkeypatch):
    """A parity-check space of C_X(r0-1) that is not one-dimensional, or a
    beta orthogonal to ev(t^a), trips the trap instead of giving lambdas."""
    A = five_points_socle
    cls = classify(A)
    D = A.dual(A.hd.r0 - 1)
    with monkeypatch.context() as patch:
        patch.setattr(A, "dual", lambda d: LinearCode(D.field, D.length, np.concatenate([D.basis] * 2)))
        with pytest.raises(InternalInconsistency, match="one-dimensional"):
            verify_socle_identities(A, cls)
    with monkeypatch.context() as patch:
        patch.setattr(A, "dual", lambda d: LinearCode(D.field, D.length, np.zeros_like(D.basis)))
        with pytest.raises(InternalInconsistency, match="orthogonal to ev"):
            verify_socle_identities(A, cls)
