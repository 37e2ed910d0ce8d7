import numpy as np

from rmcode import linalg
from rmcode.analysis import Analysis
from rmcode.indicators import colon_witness
from rmcode.groebner import standard_monomials_upto
from rmcode.polyring import parse_monomial, parse_poly
from rmcode.variety import PointSet


def test_nine_point_indicators(nine_points, F3):
    isx = nine_points.isx
    assert isx.degrees == [4] * 9
    assert isx.values == [1] * 9
    assert isx.essential == [parse_monomial(3, "t1^2*t2^2")]
    assert isx.fs[0] == parse_poly(F3, 3, "t1^2*t2^2-t1^2*t3^2-t2^2*t3^2+t3^4")


def test_frame_indicator_f5(five_points_frame, F3):
    isx = five_points_frame.isx
    assert isx.fs[4] == parse_poly(F3, 4, "t3^2-t3*t4")
    assert isx.degrees[4] == 2


def test_glex_essential_empty(five_points_socle, F3):
    from rmcode.polyring import TermOrder

    isx = Analysis(five_points_socle.X, TermOrder("glex", (4, 3, 2, 1))).isx
    assert isx.essential == []
    assert isx.degrees == [2] * 5


def test_v_numbers_ten_points(ten_points):
    isx = ten_points.isx
    assert isx.v_number == 3
    assert isx.v_sorted == (3,) + (4,) * 9
    assert isx.degrees[6] == 3  # the separator of the seventh point is a cubic


def test_v_numbers_seven_points(seven_points):
    isx = seven_points.isx
    assert list(isx.v_sorted) == [2, 2, 2, 3, 3, 3, 3]


def test_v_equals_r0_when_all_agree(nine_points):
    assert nine_points.isx.v_number == nine_points.hd.r0


def test_colon_witness_nine_points(nine_points, F3):
    isx = nine_points.isx
    w = colon_witness(nine_points, 0)
    assert w == isx.fs[0]
    # infeasible at 3, feasible at 4: encoded in the degree
    assert isx.degrees[0] == 4


def test_colon_witness_two_points(F3):
    A = Analysis(PointSet(F3, [[1, 0], [0, 1]]))
    w = colon_witness(A, 0)
    assert w == parse_poly(F3, 2, "t1") and A.isx.degrees[0] == 1


def test_colon_witness_ten_points_cubic(ten_points):
    w = colon_witness(ten_points, 6)
    assert w.homogeneous_degree() == 3


def test_max_v_attains_r0(four_points, five_points_socle, ten_points, seven_points):
    for A in (four_points, five_points_socle, ten_points, seven_points):
        assert max(A.isx.degrees) == A.hd.r0
        assert all(v <= A.hd.r0 for v in A.isx.degrees)


def test_padded_indicator_vectors_span(ten_points):
    """Indicators padded to degree r0 by coordinate powers stay independent."""
    X, hd, isx = ten_points.X, ten_points.hd, ten_points.isx
    f = X.field
    rows = []
    for i, (fi, vi) in enumerate(zip(isx.fs, isx.degrees)):
        j = max(k for k in range(X.s) if X.coords[i][k] != 0)
        shift = tuple(
            (hd.r0 - vi) if t == j else 0 for t in range(X.s)
        )
        rows.append(X.eval_poly(fi.mul_term(shift)))
    assert linalg.rank(f, np.stack(rows)) == X.m


def test_uniqueness_under_reversed_pivoting(nine_points, F3):
    """Re-solving each separator system on the reversed monomial basis gives
    the same lc-normalized polynomial."""
    X, gb, isx = nine_points.X, nine_points.gb, nine_points.isx
    f = X.field
    for i in (0, 4, 8):
        d = isx.degrees[i]
        monos = list(reversed(standard_monomials_upto(gb, X.s, d)[d]))
        A = X.eval_monomials(monos)
        e_i = np.zeros(X.m, dtype=np.int64)
        e_i[i] = 1
        x = linalg.solve(f, A.T, e_i)
        assert x is not None
        from rmcode.polyring import Poly

        g = Poly(f, X.s, {u: int(c) for u, c in zip(monos, x) if c}).monic(gb.order)
        assert g == isx.fs[i]
