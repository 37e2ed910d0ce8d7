import collections
import random

import numpy as np
import pytest

from elimination_oracle import solve
from rmcode import indicators, linalg, variety
from rmcode.analysis import Analysis
from rmcode.errors import InternalInconsistency
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import standard_monomials_upto
from rmcode.polyring import GREVLEX, Poly, TermOrder, parse_monomial, parse_poly
from rmcode.variety import PointSet, points_parse


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


def _colon_witness(A, i):
    """f_i of the ``Analysis`` A, re-verified: correct vanishing pattern,
    and no standard polynomial of smaller degree separates P_i (the system
    at degree v_i - 1 is infeasible)."""
    X, isx = A.X, A.isx
    fi = isx.fs[i]
    vi = isx.degrees[i]
    vec = X.eval_polys([fi])[0]
    if vec[i] == 0 or any(vec[j] != 0 for j in range(X.m) if j != i):
        raise InternalInconsistency(f"f_{i + 1} does not vanish exactly off P_{i + 1}")
    if vi > 0:
        monos = standard_monomials_upto(A.gb, X.s, vi - 1)[vi - 1]
        if monos:
            e_i = np.zeros(X.m, dtype=np.int64)
            e_i[i] = 1
            if solve(X.field, X.eval_monomials(monos).T, e_i) is not None:
                raise InternalInconsistency(f"a separator of degree {vi - 1} < v_i exists")
    return fi


def test_colon_witness_nine_points(nine_points, F3):
    isx = nine_points.isx
    w = _colon_witness(nine_points, 0)
    assert w == isx.fs[0]
    # infeasible at 3, feasible at 4: encoded in the degree
    assert isx.degrees[0] == 4


def test_colon_witness_two_points(F3):
    A = Analysis(PointSet(F3, [[1, 0], [0, 1]]))
    w = _colon_witness(A, 0)
    assert w == parse_poly(F3, 2, "t1") and A.isx.degrees[0] == 1


def test_colon_witness_ten_points_cubic(ten_points):
    w = _colon_witness(ten_points, 6)
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
        rows.append(fi.mul_term(shift))
    assert linalg.rank(f, X.eval_polys(rows)) == X.m


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
        x = solve(f, A.T, e_i)
        assert x is not None
        from rmcode.polyring import Poly

        g = Poly(f, X.s, {u: int(c) for u, c in zip(monos, x) if c}).monic(gb.order)
        assert g == isx.fs[i]


def _oracle_indicators(X, gb, r0):
    """Oracle: at every degree d <= r0, one RREF of [A^T | I] over the
    degree-d standard monomials solves A^T c = e_i for each point not yet
    separated.  Returns (fs, values, degrees, essential)."""
    f, m = X.field, X.m
    per_degree = standard_monomials_upto(gb, X.s, r0)
    fs, degrees = [None] * m, [None] * m
    for d in range(r0 + 1):
        monos = per_degree[d]
        A = X.eval_monomials(monos)
        width = len(monos)
        R, pivots = linalg.rref(f, np.concatenate([A.T, np.eye(m, dtype=np.int64)], axis=1))
        for i in range(m):
            if fs[i] is not None:
                continue
            x = np.zeros(width, dtype=np.int64)
            for r, pc in enumerate(pivots):
                if pc >= width:
                    if R[r, width + i] != 0:
                        break
                else:
                    x[pc] = R[r, width + i]
            else:
                fs[i] = Poly(f, X.s, {u: int(c) for u, c in zip(monos, x) if c})
                degrees[i] = d
    fs = [fi.monic(gb.order) for fi in fs]
    values = np.diagonal(X.eval_polys(fs)).tolist()
    support = set.intersection(*(set(fi.terms) for fi in fs))
    return fs, values, degrees, gb.order.sorted_desc(support)


def _assert_matches_oracle(A):
    isx = A.isx
    want = _oracle_indicators(A.X, A.gb, A.hd.r0)
    assert (isx.fs, isx.values, isx.degrees, isx.essential) == want
    assert isx.r0 == A.hd.r0


@pytest.mark.parametrize("order", [GREVLEX, TermOrder("glex")], ids=["grevlex", "glex"])
@pytest.mark.parametrize("name", CORPUS)
def test_indicators_match_the_per_degree_oracle_on_corpus(name, order):
    X, _ = points_parse(load_entry(name)[0])
    _assert_matches_oracle(Analysis(X, order))


def test_indicators_match_the_per_degree_oracle_on_random_sets():
    rng = random.Random(7070)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]
    orders = [GREVLEX, TermOrder("glex"), TermOrder("glex", (3, 2, 1))]
    spread = extension = 0
    for trial in range(60):
        F = fields[trial % len(fields)]
        s = 3 if trial % 3 else 2
        order = orders[trial % 3] if s == 3 else rng.choice(orders[:2])
        m = rng.randint(2, min(12, (F.q**s - 1) // (F.q - 1)))
        pts = set()
        while len(pts) < m:
            row = tuple(rng.randrange(F.q) for _ in range(s))
            if any(row):
                pts.add(row)
        A = Analysis(PointSet(F, sorted(pts), dedup=True), order)
        _assert_matches_oracle(A)
        spread += len(set(A.isx.degrees)) > 1
        extension += F.k > 1
    assert spread >= 10 and extension >= 20


def test_indicators_solve_only_at_degrees_with_new_indicators(
    nine_points, ten_points, monkeypatch
):
    """The indicators are read off the eliminations of the interpolation:
    no RREF, and one evaluation of the standard monomials per distinct
    local v-number, for the one vanishing-pattern product of that degree."""
    for A in (nine_points, ten_points):
        A = Analysis(A.X, A.order)
        A.hd
        calls = collections.Counter()
        for name in ("rref", "rref_transform"):
            real = getattr(linalg, name)
            monkeypatch.setattr(
                linalg, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        real_eval = PointSet.eval_monomials
        monkeypatch.setattr(
            PointSet,
            "eval_monomials",
            lambda self, monos: calls.update([sum(monos[0])]) or real_eval(self, monos),
        )
        isx = indicators.standard_indicators(A)
        monkeypatch.undo()
        assert calls == collections.Counter(set(isx.degrees))
        assert len(set(isx.degrees)) < A.hd.r0 + 1


def test_vanishing_pattern_trap_catches_a_wrong_indicator(nine_points, monkeypatch):
    """An indicator row that is also nonzero at another point trips the
    vanishing-pattern trap, checked by one product per degree."""
    step = variety.transform_step

    def corrupted(X, candidates):
        basis, std, relations, points, rows = step(X, candidates)
        if len(points) >= 2:
            rows = rows.copy()
            rows[0] = X.field.add_arr(rows[0], rows[1])
        return basis, std, relations, points, rows

    monkeypatch.setattr(variety, "transform_step", corrupted)
    A = Analysis(nine_points.X)
    A.hd
    with pytest.raises(InternalInconsistency, match="vanishing pattern"):
        indicators.standard_indicators(A)


def test_colon_witness_catches_a_wrong_indicator(nine_points):
    """An f_i that is also nonzero at another point trips the re-verification
    of its vanishing pattern."""
    A = Analysis(nine_points.X)
    A.isx.fs[0] = A.isx.fs[0] + A.isx.fs[1]
    with pytest.raises(InternalInconsistency, match="vanish"):
        _colon_witness(A, 0)
    assert _colon_witness(A, 1) == A.isx.fs[1]
