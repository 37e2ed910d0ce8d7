import itertools
import random

import numpy as np
import pytest

from rmcode import linalg
from rmcode.errors import DuplicatePoint, ParseError, TooFewPoints, ZeroPoint
from rmcode.errors import InternalInconsistency
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import (
    GroebnerBasis,
    _next_layer,
    gb_certify,
    standard_monomials_upto,
)
from rmcode.polyring import GREVLEX, Poly, TermOrder, monomials_of_degree
from rmcode.variety import (
    PointSet,
    format_points,
    hilbert_data,
    points_full_projective,
    points_parameterized,
    points_parse,
    points_torus,
    projective_closure,
    symmetry_equiv_check,
    vanishing_ideal,
)

from groebner_oracle import buchberger
from pointwise_oracle import evaluate, rescaled


def test_torus_p1_f5(F5):
    T = points_torus(2, F5)
    assert T.coords.tolist() == [[1, 1], [2, 1], [3, 1], [4, 1]]


def test_full_projective_counts(F3, F9):
    assert points_full_projective(3, F3).m == 13
    assert points_full_projective(2, F9).m == 10


def test_projective_closure_last_coordinate(F3):
    rows = [list(t) for t in itertools.product(range(3), repeat=2)]
    Y = projective_closure(F3, rows)
    assert Y.m == 9 and np.all(Y.coords[:, -1] == 1)


def test_parameterized_torus(F5):
    PT = points_parameterized([(1, 0), (0, 1)], 2, F5)
    T = points_torus(2, F5)
    assert sorted(map(tuple, PT.coords.tolist())) == sorted(map(tuple, T.coords.tolist()))


def test_parameterized_negative_exponents(F5):
    # (y^-1, y) ~ (1, y^2): exactly the squares {1, 4} survive projectively
    PT = points_parameterized([(-1,), (1,)], 1, F5)
    assert PT.m == 2
    assert sorted(map(tuple, PT.coords.tolist())) == [(1, 1), (4, 1)]


def test_point_validation(F3):
    with pytest.raises(ZeroPoint):
        PointSet(F3, [[0, 0], [1, 1]])
    with pytest.raises(DuplicatePoint):
        PointSet(F3, [[1, 1], [2, 2]])  # projectively equal
    with pytest.raises(TooFewPoints):
        PointSet(F3, [[1, 0]])


def _is_canonical(X):
    """Every representative has its last nonzero coordinate equal to 1."""
    return all(row[np.flatnonzero(row)[-1]] == 1 for row in X.coords)


def test_canonicalization(F3):
    X = PointSet(F3, [[1, 0, 2], [0, 1, 0]], canonicalize=False)
    assert not _is_canonical(X)
    C = PointSet(F3, X.coords, canonicalize=True)
    assert _is_canonical(C)
    assert C.coords.tolist() == [[2, 0, 1], [0, 1, 0]]
    # idempotent
    assert PointSet(F3, C.coords, canonicalize=True).coords.tolist() == C.coords.tolist()


def test_vanishing_ideal_golden_trio(four_points, nine_points, F3):
    X4, gb4 = four_points.X, four_points.gb
    assert gb4.to_strings() == ["t2-t3", "t3^2-t4^2", "t1^2-t1*t3"]
    X9, gb9 = nine_points.X, nine_points.gb
    assert gb9.to_strings() == ["t2^3-t2*t3^2", "t1^3-t1*t3^2"]
    X2 = PointSet(F3, [[1, 0], [0, 1]])
    assert vanishing_ideal(X2).gb.to_strings() == ["t1*t2"]


def test_hilbert_data_examples(nine_points, five_points_frame, F3):
    hd9 = nine_points.hd
    assert hd9.H == (1, 3, 6, 8, 9) and hd9.r0 == 4
    hd5 = five_points_frame.hd
    assert hd5.h_vector == (1, 3, 1) and hd5.symmetric and hd5.r0 == 2
    X2 = PointSet(F3, [[1, 0], [0, 1]])
    gb2 = vanishing_ideal(X2).gb
    hd2 = hilbert_data(gb2, 2, nvars=2)
    assert hd2.H == (1, 2) and hd2.h_vector == (1, 1) and hd2.r0 == 1
    assert hd2.a_invariant == 0 and hd2.degree == 2


def test_symmetry_check(ten_points, five_points_frame):
    hdH = ten_points.hd
    assert hdH.h_vector == (1, 2, 3, 3, 1)
    assert symmetry_equiv_check(hdH) is False
    hd5 = five_points_frame.hd
    assert symmetry_equiv_check(hd5) is True


def _random_pointset(rng, field, s, m_target):
    rows = []
    seen = set()
    while len(rows) < m_target:
        row = tuple(rng.randrange(field.q) for _ in range(s))
        if all(x == 0 for x in row):
            continue
        last = max(i for i, x in enumerate(row) if x)
        inv = field.inv(row[last])
        key = tuple(field.mul(x, inv) for x in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    return PointSet(field, rows, canonicalize=False)


def test_representative_independence_of_ideal(F3, F5):
    """Rescaling representatives leaves the ideal and all invariants alone."""
    rng = random.Random(20240401)
    fields = {2: Field(2), 3: F3, 5: F5}
    for trial in range(100):
        q = rng.choice([2, 3, 5])
        f = fields[q]
        s = rng.choice([2, 3])
        m = rng.randint(2, min(8, (q**s - 1) // (q - 1)))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X).gb
        hd = hilbert_data(gb, X.m, nvars=s)
        lam = [rng.randrange(1, q) for _ in range(m)]
        Y = rescaled(X, lam)
        gb2 = vanishing_ideal(Y).gb
        assert gb2.gens == gb.gens
        hd2 = hilbert_data(gb2, Y.m, nvars=s)
        assert hd2 == hd


def test_macaulay_identity_full_matrix_oracle(F3, F5):
    """H(d) = C(d+s-1, s-1) - dim ker of the full monomial evaluation matrix."""
    rng = random.Random(987)
    fields = {2: Field(2), 3: F3, 5: F5}
    for trial in range(30):
        q = rng.choice([2, 3, 5])
        f = fields[q]
        s = rng.choice([2, 3])
        m = rng.randint(2, min(8, (q**s - 1) // (q - 1)))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X).gb
        hd = hilbert_data(gb, X.m, nvars=s)
        for d in range(1, hd.r0 + 2):
            monos = list(monomials_of_degree(s, d))
            A = X.eval_monomials(monos)
            kernel = linalg.nullspace(f, A.T)
            H_d = hd.H[d] if d <= hd.r0 else X.m
            assert len(monos) - kernel.shape[0] == H_d
            std = standard_monomials_upto(gb, s, d)[d]
            assert len(std) == H_d


def test_point_prime_generators_reduce_consistently(nine_points, F3):
    """The linear generators of each point's ideal keep their values on X
    after reduction modulo I(X); in particular they vanish at their point."""
    from rmcode.groebner import normal_form

    X, gb, hd = nine_points.X, nine_points.gb, nine_points.hd
    for i in range(X.m):
        alpha = [int(x) for x in X.coords[i]]
        for a in range(X.s):
            for b in range(a + 1, X.s):
                terms = {}
                lin = Poly(F3, X.s, {
                    tuple(int(t == a) for t in range(X.s)): alpha[b],
                    tuple(int(t == b) for t in range(X.s)): F3.neg(alpha[a]),
                })
                if lin.is_zero():
                    continue
                r = normal_form(lin, gb)
                vals = X.eval_polys([r, lin])
                assert np.array_equal(vals[0], vals[1])
                assert vals[0, i] == 0


def test_points_file_roundtrip(F9):
    X = points_full_projective(2, F9)
    text = format_points(F9, 2, X.coords, header=("roundtrip",))
    Y, order = points_parse(text)
    assert order is None
    assert Y.coords.tolist() == X.coords.tolist()


def test_points_file_errors():
    with pytest.raises(ParseError):
        points_parse("")
    with pytest.raises(ParseError):
        points_parse("field 3 1\nvars 2\n1 2 3\n")
    with pytest.raises(ParseError):
        points_parse("vars 2\n1 2\n")
    with pytest.raises(ParseError):
        points_parse("field 4 1\nvars 2\n1 0\n0 1\n")


# a header line repeated, after the points, or without its value: the
# message and the line number of the offending line
MISPLACED_HEADERS = [
    ("field 2 2\nvars 2\na 1\nfield 3 1\n1 1\n", "`field` line after the point rows", 4),
    ("field 3 1\nvars 2\n1 0\nvars 3\n1 0 1\n", "`vars` line after the point rows", 4),
    ("field 3 1\nvars 2\n1 0\norder glex\n0 1\n", "`order` line after the point rows", 4),
    ("field 3 1\nfield 5 1\nvars 2\n1 0\n0 1\n", "repeated `field` line", 2),
    ("field 3 1\nvars 2\nvars 2\n1 0\n0 1\n", "repeated `vars` line", 3),
    (
        "field 3 1\nvars 2\norder glex\norder grevlex\n1 0\n0 1\n",
        "repeated `order` line",
        4,
    ),
    ("field 3 1\nvars 2\norder\n1 0\n0 1\n", "order line needs", 3),
    ("field 3 1\nvars\n1 0\n0 1\n", "vars line needs", 2),
]


@pytest.mark.parametrize("text, message, line", MISPLACED_HEADERS)
def test_header_lines_appear_once_before_the_points(text, message, line):
    with pytest.raises(ParseError, match=message) as err:
        points_parse(text)
    assert err.value.line == line


# an order or vars line with a token it does not read, or a prime field
# with a modulus that is not monic of degree 1
STRICT_HEADERS = [
    ("field 3 1\nvars 3\norder glex prem=3,2,1\n1 0 0\n0 1 0\n", "order line needs", 3),
    (
        "field 3 1\nvars 2\norder glex perm=1,2 perm=2,1\n1 0\n0 1\n",
        "order line needs",
        3,
    ),
    ("field 3 1\nvars 2 9\n1 0\n0 1\n", "vars line needs", 2),
    ("field 5 1 7 7 7\nvars 2\n1 0\n0 1\n", "monic of degree 1", 1),
    ("field 5 1 7\nvars 2\n1 0\n0 1\n", "monic of degree 1", 1),
    ("field 5 1 0 2\nvars 2\n1 0\n0 1\n", "monic of degree 1", 1),
]


@pytest.mark.parametrize("text, message, line", STRICT_HEADERS)
def test_header_lines_have_no_unread_tokens(text, message, line):
    with pytest.raises(ParseError, match=message) as err:
        points_parse(text)
    assert err.value.line == line


def test_prime_field_line_accepts_a_monic_linear_modulus():
    X, _ = points_parse("field 5 1 3 1\nvars 2\n1 0\n0 1\n")
    assert X.field.modulus == (0, 1)


def test_order_line_parse():
    text = "field 3 1\nvars 3\norder glex perm=3,2,1\n1 0 0\n0 1 0\n"
    X, order = points_parse(text)
    assert order.kind == "glex" and order.perm == (3, 2, 1)


def _vanishing_ideal_by_elimination(X, order):
    """Oracle: interpolation one candidate at a time up to degree r0 + 1.
    Each candidate's evaluation vector is reduced against the rows of the
    standard monomials accepted so far, tracking each row as a combination
    of them; a vector that reduces to zero gives the candidate minus that
    combination.  When the result fails certification, a full Buchberger
    run restarts from it.  Returns the basis and whether it restarted."""
    f, s, m = X.field, X.s, X.m
    gens, leads = [], []
    r0, d = None, 0
    accepted = _next_layer(None, s, leads)
    while True:
        d += 1
        candidates = sorted(_next_layer(accepted, s, leads), key=order.key)
        accepted, basis_rows, combos = [], [], []
        for u in candidates:
            red = X.eval_monomials([u])[0]
            coeffs = np.zeros(len(accepted), dtype=np.int64)
            for row, combo in zip(basis_rows, combos):
                piv = int(np.nonzero(row)[0][0])
                c = int(red[piv])
                if c:
                    factor = f.div(c, int(row[piv]))
                    red = f.sub_arr(red, f.mul_arr(factor, row))
                    coeffs = f.sub_arr(coeffs, f.mul_arr(factor, combo))
            if np.any(red):
                accepted.append(u)
                basis_rows.append(red)
                combos.append(np.concatenate([coeffs, [1]]).astype(np.int64))
                combos = [np.pad(c, (0, len(accepted) - len(c))) for c in combos]
            else:
                terms = {u: 1}
                terms.update((v, int(c)) for v, c in zip(accepted, coeffs) if c)
                gens.append(Poly(f, s, terms))
                leads.append(u)
        if len(accepted) == m and r0 is None:
            r0 = d
        if r0 is not None and d >= r0 + 1:
            break
        assert d <= 4 * (m + s)
    gb = GroebnerBasis(order, sorted(gens, key=lambda g: order.key(g.leading_monomial(order))))
    if gb_certify(gb):
        return GroebnerBasis(order, gb.gens, certified=True), False
    gb = buchberger(gens, order)
    if not gb_certify(gb):
        raise InternalInconsistency("Buchberger fallback failed certification")
    return gb, True


def _orders_for(s):
    return (GREVLEX, TermOrder("glex"), TermOrder("glex", tuple(range(s, 0, -1))))


def _assert_same_ideal(X, order):
    """The interpolation gives the oracle's basis, generator order and term
    order included; returns whether the oracle restarted Buchberger."""
    new = vanishing_ideal(X, order).gb
    old, restarted = _vanishing_ideal_by_elimination(X, order)
    assert new.gens == old.gens
    assert new.certified and old.certified
    new_terms = [list(g.terms) for g in new.gens]
    if restarted:
        # a Buchberger remainder lists its terms in descending order; the
        # interpolation lists the lead, then the standard monomials ascending
        assert [list(g.terms) for g in old.gens] == [order.sorted_desc(t) for t in new_terms]
        assert new_terms == [t[:1] + order.sorted_desc(t[1:])[::-1] for t in new_terms]
    else:
        assert new_terms == [list(g.terms) for g in old.gens]
    return restarted


@pytest.mark.parametrize("name", CORPUS)
def test_vanishing_ideal_matches_elimination_oracle_on_corpus(name):
    X, order = points_parse(load_entry(name)[0])
    for o in {order or GREVLEX, *_orders_for(X.s)}:
        _assert_same_ideal(X, o)


def test_vanishing_ideal_matches_elimination_oracle_on_random_sets():
    rng = random.Random(5150)
    fields = [Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(2, 3), Field(3, 2)]
    for _ in range(12):
        f = rng.choice(fields)
        s = rng.choice([2, 3, 4] if f.q <= 3 else [2, 3])
        m = rng.randint(2, min(20, (f.q**s - 1) // (f.q - 1)))
        X = _random_pointset(rng, f, s, m)
        for order in _orders_for(s):
            _assert_same_ideal(X, order)


def test_vanishing_ideal_matches_elimination_oracle_where_it_restarts():
    """60 more seeded sets over F_2..F_9 under the three orders; on many of
    them the reduced basis has generators above degree r0 + 1, so
    interpolating only up to r0 + 1 fails certification."""
    rng = random.Random(6160)
    fields = [Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(2, 3), Field(3, 2)]
    restarts = 0
    for _ in range(60):
        f = rng.choice(fields)
        s = rng.choice([2, 3, 4] if f.q <= 3 else [2, 3])
        m = rng.randint(2, min(14, (f.q**s - 1) // (f.q - 1)))
        X = _random_pointset(rng, f, s, m)
        for order in _orders_for(s):
            restarts += _assert_same_ideal(X, order)
    assert restarts >= 20


def test_vanishing_ideal_runs_past_a_degree_without_generators(F9):
    """Under glex t3 > t2 > t1 these seven points of P^2(F_9) have r0 = 3
    and basis elements in degrees 3, 4 and 6 but none in degree 5."""
    X = PointSet(F9, [[5, 4, 1], [7, 1, 1], [6, 2, 1], [2, 7, 1], [3, 7, 1], [8, 4, 1], [6, 7, 1]])
    order = TermOrder("glex", (3, 2, 1))
    gb = vanishing_ideal(X, order).gb
    assert hilbert_data(gb, X.m, nvars=3).r0 == 3
    assert sorted({g.homogeneous_degree() for g in gb.gens}) == [3, 4, 6]
    assert _assert_same_ideal(X, order)


def _eval_poly(X, poly):
    """Oracle: (f(P_1), ..., f(P_m)), one term at a time."""
    f = X.field
    out = np.zeros(X.m, dtype=np.int64)
    for c, row in zip(poly.terms.values(), X.eval_monomials(list(poly.terms))):
        out = f.add_arr(out, f.mul_arr(c, row))
    return out


def test_evaluation_matches_pointwise_evaluation():
    """The vectorized evaluation matrix and polynomial values equal
    the term-by-term value at each point and the term-by-term oracle, over prime and
    extension fields; no monomial gives no row, no polynomial no row."""
    rng = random.Random(77)
    for f in (Field(2), Field(5), Field(2, 3), Field(3, 2), Field(2**31 - 1)):
        for s in (2, 3):
            X = _random_pointset(rng, f, s, min(6, (f.q**s - 1) // (f.q - 1)))
            monos = [u for d in range(5) for u in monomials_of_degree(s, d)]
            want = [
                [evaluate(Poly.monomial(f, s, u), [int(x) for x in pt]) for pt in X.coords]
                for u in monos
            ]
            assert X.eval_monomials(monos).tolist() == want
            assert X.eval_monomials([]).shape == (0, X.m)
            polys = [
                Poly(f, s, {u: rng.randrange(f.q) for u in monos if rng.random() < 0.3})
                for _ in range(4)
            ] + [Poly.zero(f, s)]
            points = [[int(x) for x in pt] for pt in X.coords]
            vals = X.eval_polys(polys)
            assert vals.tolist() == [[evaluate(g, pt) for pt in points] for g in polys]
            assert vals.tolist() == [_eval_poly(X, g).tolist() for g in polys]
            assert X.eval_polys([]).shape == (0, X.m)
