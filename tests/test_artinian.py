import itertools
import random

import numpy as np
import pytest

from rmcode.artinian import (
    _avoids_all,
    _first_regular_form,
    _linear_form,
    artinian_reduce,
    classify,
    find_regular_linear_form,
    lift_basis,
    socle,
    verify_socle_identities,
)
from rmcode.errors import NotGorenstein, NotRegular
from rmcode.gf import Field
from rmcode.groebner import standard_monomials_upto
from rmcode.polyring import parse_monomial, parse_poly
from rmcode.variety import PointSet, points_full_projective, vanishing_ideal


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
        assert not np.any(X.eval_poly(h) == 0)


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
    assert not np.any(bigX.eval_poly(h) == 0)


def test_artinian_reduce_shortcut(five_points_frame, F3):
    X, gb, hd = five_points_frame.X, five_points_frame.gb, five_points_frame.hd
    J = artinian_reduce(gb, parse_poly(F3, 4, "t4"), X)
    assert J.certified
    per = standard_monomials_upto(J, 4, hd.r0 + 1)
    assert tuple(len(p) for p in per[: hd.r0 + 1]) == hd.h_vector


def test_artinian_reduce_general_form(five_points_socle, F3):
    X, gb, hd = five_points_socle.X, five_points_socle.gb, five_points_socle.hd
    J = artinian_reduce(gb, parse_poly(F3, 4, "t1+t4"), X)
    per = standard_monomials_upto(J, 4, hd.r0 + 1)
    assert tuple(len(p) for p in per[: hd.r0 + 1]) == (1, 3, 1)
    assert per[hd.r0] == (parse_monomial(4, "t3*t4"),)


def test_artinian_reduce_two_points(F3):
    X = PointSet(F3, [[1, 1], [0, 1]])
    gb = vanishing_ideal(X)
    J = artinian_reduce(gb, parse_poly(F3, 2, "t2"), X)
    per = standard_monomials_upto(J, 2, 2)
    assert per[0] == ((0, 0),) and per[1] == ((1, 0),) and per[2] == ()


def test_artinian_reduce_rejects_zero_divisor(nine_points, F3):
    with pytest.raises(NotRegular):
        artinian_reduce(nine_points.gb, parse_poly(F3, 3, "t1"), nine_points.X)


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


def test_socle_plane_f3(plane_f3):
    cls = classify(plane_f3)
    assert not cls.gorenstein
    assert cls.type_ == 2 and not cls.level
    assert cls.s_number == 3 and cls.socle_degrees == [3, 5]
    assert cls.extension_degree == 3  # no avoiding line exists over F_9 either
    with pytest.raises(NotGorenstein):
        verify_socle_identities(plane_f3, cls)


def test_socle_maximal_ideal_guard(F3):
    from rmcode.groebner import buchberger
    from rmcode.polyring import GREVLEX

    J = buchberger([parse_poly(F3, 2, "t1"), parse_poly(F3, 2, "t2")], GREVLEX)
    soc, top, type_, level, gorenstein, s_number = socle(J, 2)
    assert type_ == 1 and gorenstein and s_number == 0 and top == 0


def test_socle_rejects_positive_dimension(F3):
    from rmcode.errors import NotArtinian
    from rmcode.groebner import buchberger
    from rmcode.polyring import GREVLEX

    J = buchberger([parse_poly(F3, 3, "t1"), parse_poly(F3, 3, "t2^2")], GREVLEX)
    with pytest.raises(NotArtinian):
        socle(J, 3)


def test_extension_invariance(five_points_frame, F3):
    """Classifying after a forced scalar extension gives the same verdicts."""
    X, gb = five_points_frame.X, five_points_frame.gb
    base = classify(five_points_frame)
    big = Field(3, 2)
    bigX = X.lift(big)
    big_gb = lift_basis(gb, X, bigX)
    hpoly = next(
        _linear_form(big, X.s, c)
        for c in _candidate_forms(big, X.s)
        if _avoids_all(bigX, c)
    )
    J = artinian_reduce(big_gb, hpoly, bigX)
    soc, top, type_, level, gorenstein, s_number = socle(J, X.s)
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
