import itertools

import numpy as np
import pytest

from rmcode import linalg
from rmcode.analysis import Analysis, affine_duality
from rmcode.codes import (
    LinearCode,
    code_of_degree,
    dual_code,
    min_distance,
    monomially_equivalent,
)
from rmcode.duality import (
    _ones_parity,
    global_duality,
    gorenstein_crosscheck,
    gorenstein_selfdual_classify,
    local_duality_verify,
    self_dual,
    self_dual_report,
)
from rmcode.errors import ConditionFailed, NotEssential, NotGorenstein
from rmcode.gf import Field
from rmcode.groebner import normal_form, standard_monomials_upto
from rmcode.polyring import Poly, monomial_mul, monomial_support, parse_monomial
from rmcode.variety import PointSet, points_full_projective, points_torus
from rmcode.artinian import classify


def _proportional(field, a, b):
    ratios = {field.div(int(x), int(y)) for x, y in zip(a, b)}
    return len(ratios) == 1 and 0 not in ratios


def test_global_duality_frame(five_points_frame, F3):
    cert = global_duality(five_points_frame)
    assert cert.holds and cert.symmetric_sum and cert.v_all_r0
    want = [F3.parse_element(t) for t in ("-1", "-1", "-1", "1", "-1")]
    assert _proportional(F3, cert.beta, want)
    assert cert.verified_degrees == list(range(five_points_frame.hd.r0 + 1))


def test_global_duality_nine_points(nine_points):
    X, gb = nine_points.X, nine_points.gb
    cert = global_duality(nine_points)
    assert cert.holds
    assert dual_code(code_of_degree(X, gb, 1)) == code_of_degree(X, gb, 2)


def test_global_duality_failure_witness(ten_points):
    cert = global_duality(ten_points)
    assert not cert.holds
    assert cert.failure_witness == {
        "reason": "v_number_below_regularity",
        "v": 3,
        "r0": 4,
    }


def test_beta_uniqueness(five_points_frame):
    """The dual of C_X(r0-1) is one-dimensional when the criterion holds."""
    X, gb, hd = five_points_frame.X, five_points_frame.gb, five_points_frame.hd
    C = code_of_degree(X, gb, hd.r0 - 1)
    N = linalg.nullspace(X.field, C.basis)
    assert N.shape[0] == 1
    assert np.all(N[0] != 0)


def test_min_distance_two_at_penultimate_degree(five_points_frame, nine_points):
    for A in (five_points_frame, nine_points):
        X, gb, hd = A.X, A.gb, A.hd
        assert min_distance(code_of_degree(X, gb, hd.r0 - 1)) == 2


def test_all_v_r0_when_degree_zero_verified(five_points_frame, four_points):
    for A in (five_points_frame, four_points):
        cert = global_duality(A)
        if cert.holds and 0 in cert.verified_degrees:
            assert all(v == A.hd.r0 for v in A.isx.degrees)


def test_dual_equation_both_directions(five_points_frame):
    """When C_X(0)^perp = beta . C_X(1), the same beta also gives
    C_X(1)^perp = beta . C_X(0)."""
    X, gb = five_points_frame.X, five_points_frame.gb
    cert = global_duality(five_points_frame)
    C0, C1 = code_of_degree(X, gb, 0), code_of_degree(X, gb, 1)
    assert monomially_equivalent(C1, dual_code(C0), cert.beta)
    assert monomially_equivalent(C0, dual_code(C1), cert.beta)


def test_gorenstein_beta_from_indicators(five_points_frame, nine_points, F3):
    """(lc(f_i) / f_i(P_i))_i spans the parity-check line when last
    coordinates are all 1 and the ideal is Gorenstein."""
    for A in (five_points_frame, nine_points):
        f, isx = A.X.field, A.isx
        cert = global_duality(A)
        lc = [fi.leading_coeff(A.gb.order) for fi in isx.fs]
        beta_ind = [f.div(c, v) for c, v in zip(lc, isx.values)]
        assert _proportional(f, beta_ind, cert.beta)


def test_local_duality_nine_points(nine_points, F3):
    g1 = [parse_monomial(3, t) for t in ("t1", "t2", "t3")]
    g2 = [
        parse_monomial(3, t)
        for t in ("t1^2*t3", "t1*t2*t3", "t1*t3^2", "t2^2*t3", "t2*t3^2", "t3^3")
    ]
    rep = local_duality_verify(nine_points, g1, g2, parse_monomial(3, "t1^2*t2^2"))
    assert rep["gamma"] == [1] * 9


def test_local_duality_projective_mode(four_points, F3):
    rep = local_duality_verify(
        four_points,
        [parse_monomial(4, "1")],
        [parse_monomial(4, t) for t in ("t1", "t3", "t4")],
        parse_monomial(4, "t1*t3"),
        projective_mode=True,
    )
    want = [F3.parse_element(t) for t in ("-1", "-1", "1", "1")]
    assert rep["gamma"] == want
    # without projective mode, d + k < r0 violates condition (1)
    with pytest.raises(ConditionFailed) as err:
        local_duality_verify(
            four_points,
            [parse_monomial(4, "1")],
            [parse_monomial(4, t) for t in ("t1", "t3", "t4")],
            parse_monomial(4, "t1*t3"),
            projective_mode=False,
        )
    assert err.value.which == 1


def test_local_duality_empty_subsets(four_points):
    with pytest.raises(ConditionFailed) as err:
        local_duality_verify(four_points, [], [], parse_monomial(4, "t1*t3"))
    assert err.value.which == 2


def test_local_duality_not_essential(four_points):
    with pytest.raises(NotEssential):
        local_duality_verify(
            four_points, [parse_monomial(4, "1")], [parse_monomial(4, "t1")],
            parse_monomial(4, "t4^2"),
        )


def _splits(A, projective_mode):
    """Every pair of nonempty standard-monomial subsets of degrees d, k with
    d + k = r0 (<= r0 in projective mode) and m elements in all."""
    layers = standard_monomials_upto(A.gb, A.X.s, A.hd.r0)
    for d, k in itertools.product(range(A.hd.r0 + 1), repeat=2):
        if d + k > A.hd.r0 or (d + k < A.hd.r0 and not projective_mode):
            continue
        for a in range(1, len(layers[d]) + 1):
            b = A.X.m - a
            if 1 <= b <= len(layers[k]):
                for g1 in itertools.combinations(layers[d], a):
                    for g2 in itertools.combinations(layers[k], b):
                        yield list(g1), list(g2)


@pytest.mark.parametrize(
    "name, projective_mode",
    [("nine_points", False), ("four_points", False), ("four_points", True), ("torus", False)],
)
def test_local_duality_remainder_condition_matches_division(
    request, F5, name, projective_mode
):
    """Condition (3) holds exactly when no remainder of u1*u2 on division by
    the basis of I(X), term by term, contains t_e."""
    A = Analysis(points_torus(2, F5)) if name == "torus" else request.getfixturevalue(name)
    checked = {True: 0, False: 0}
    for t_e in A.isx.essential:
        if projective_mode and A.X.s - 1 in monomial_support(t_e):
            continue
        for g1, g2 in _splits(A, projective_mode):
            holds = all(
                t_e not in normal_form(
                    Poly.monomial(A.X.field, A.X.s, monomial_mul(u1, u2)), A.gb
                ).terms
                for u1 in g1
                for u2 in g2
            )
            try:
                local_duality_verify(A, g1, g2, t_e, projective_mode=projective_mode)
                assert holds
            except ConditionFailed as exc:
                assert exc.which == 3 and not holds
            checked[holds] += 1
    assert checked[True] and checked[False]


def test_self_dual_line_f9(F9):
    rep = self_dual_report(Analysis(points_full_projective(2, F9)))
    assert rep == {"self_orthogonal_degrees": [4], "self_dual_degrees": [4]}


def test_self_orthogonal_plane_f3(plane_f3):
    rep = self_dual_report(plane_f3)
    assert rep["self_orthogonal_degrees"] == [1, 2]
    assert rep["self_dual_degrees"] == []


def test_self_dual_f4_example(F4):
    a = F4.generator
    a2 = F4.mul(a, a)
    X = PointSet(F4, [[1, 0, 1], [a, 0, 1], [a2, 0, 1], [0, 1, 1], [0, a2, 1], [0, a, 1]])
    A = Analysis(X)
    assert self_dual(A, 1)
    C = code_of_degree(X, A.gb, 1)
    assert dual_code(C) == C
    # C_X(1) is spanned by the columns of the point matrix
    cols = X.coords.T
    assert LinearCode.from_rows(F4, cols) == C
    # self-dual with t_s = 1 everywhere forces m = 0 mod p and
    # pairwise-orthogonal point-matrix columns
    assert X.m % F4.p == 0
    for i in range(X.s):
        for j in range(i, X.s):
            dot = 0
            for t in range(X.m):
                dot = F4.add(dot, F4.mul(int(X.coords[t, i]), int(X.coords[t, j])))
            assert dot == 0


def test_gorenstein_selfdual_classification(F5, F4):
    A = Analysis(PointSet(F5, [[1, 1], [2, 1], [3, 1], [4, 1]]))
    rep = gorenstein_selfdual_classify(A, classify(A))
    by_d = {e["d"]: e for e in rep}
    assert by_d[1]["monomially_self_dual"] and not by_d[1]["self_dual"]
    assert by_d[1]["point_matrix_self_dual"] is False
    assert not any(e["monomially_self_dual"] for e in rep if e["d"] != 1)

    a = F4.generator
    a2 = F4.mul(a, a)
    A6 = Analysis(
        PointSet(F4, [[1, 0, 1], [a, 0, 1], [a2, 0, 1], [0, 1, 1], [0, a2, 1], [0, a, 1]])
    )
    rep6 = gorenstein_selfdual_classify(A6, classify(A6))
    by_d6 = {e["d"]: e for e in rep6}
    assert by_d6[1]["self_dual"] and by_d6[1]["point_matrix_self_dual"]


def test_gorenstein_selfdual_even_regularity(five_points_frame):
    assert five_points_frame.hd.r0 == 2  # even
    rep = gorenstein_selfdual_classify(five_points_frame, classify(five_points_frame))
    assert not any(e["monomially_self_dual"] for e in rep)


def test_gorenstein_selfdual_requires_gorenstein(plane_f3):
    cls = classify(plane_f3)
    with pytest.raises(NotGorenstein):
        gorenstein_selfdual_classify(plane_f3, cls)


def test_crosscheck_agreement(five_points_frame, plane_f3):
    for A in (five_points_frame, plane_f3):
        cert = global_duality(A)
        cls = classify(A)
        assert gorenstein_crosscheck(cert, cls) == cert.holds


def test_affine_duality_grid(F3, nine_points):
    rows = [list(t) for t in itertools.product(range(3), repeat=2)]
    cert, info, _ = affine_duality(F3, rows)
    assert cert.holds
    assert info["affine_hilbert_function"] == list(nine_points.hd.H)


def test_affine_duality_line(F5):
    rows = [[x] for x in range(5)]
    cert, info, A = affine_duality(F5, rows)
    assert cert.holds
    # principal vanishing ideal (a complete intersection): t1^q - t1*t2^(q-1)
    from rmcode.polyring import parse_poly

    assert A.gb.gens == (parse_poly(F5, 2, "t1^5-t1*t2^4"),)


def test_affine_duality_two_points(F3):
    cert, info, _ = affine_duality(F3, [[0], [1]])
    assert info["r0"] == 1 and cert.holds
    assert len(cert.beta) == 2


def _ones_parity_by_elements(field, rows):
    """Oracle: add up each row one field element at a time."""
    for row in rows:
        total = 0
        for x in row:
            total = field.add(total, int(x))
        if total:
            return False
    return True


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_ones_parity_matches_the_elementwise_sum(p, k):
    F = Field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    hits = 0
    for trial in range(60):
        rows = rng.integers(0, F.q, size=(rng.integers(0, 4), rng.integers(1, 9)))
        # force a zero sum in the last entry of every row half the time
        if trial % 2 and rows.size:
            for row in rows:
                partial = 0
                for x in row[:-1]:
                    partial = F.add(partial, int(x))
                row[-1] = F.neg(partial)
        want = _ones_parity_by_elements(F, rows)
        assert _ones_parity(F, rows) == want
        hits += want
    assert 0 < hits < 60
