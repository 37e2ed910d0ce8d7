import collections
import itertools
import random

import numpy as np
import pytest

from interpolation_oracle import code_of_degree
from rmcode import linalg
from rmcode.analysis import Analysis
from rmcode.codes import (
    LinearCode,
    dual_code,
    min_distance,
)
from rmcode.duality import (
    _ones_parity,
    global_duality,
    gorenstein_crosscheck,
    gorenstein_selfdual_classify,
    local_duality_verify,
    self_dual_report,
    self_orthogonal,
    verify_duality,
)
from rmcode.errors import ConditionFailed, InternalInconsistency, NotEssential, NotGorenstein
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import standard_monomials_upto
from rmcode.polyring import GREVLEX, Poly, TermOrder, monomial_mul, monomial_support, parse_monomial
from rmcode.variety import PointSet, points_full_projective, points_parse, points_torus
from rmcode.artinian import classify

import duality_oracle
from groebner_oracle import normal_form
from interpolation_oracle import indicator_polys
from duality_oracle import affine_duality, monomially_equivalent


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
        lc = [fi.terms[fi.leading_monomial(A.gb.order)] for fi in indicator_polys(isx)]
        beta_ind = [f.div(c, v) for c, v in zip(lc, isx.values)]
        assert _proportional(f, beta_ind, cert.beta)


def _verify_duality_by_rref(A, beta):
    """Oracle: C_X(d)^perp and beta . C_X(r0-d-1) built and compared as
    RREF bases in every degree 0..r0."""
    r0 = A.hd.r0
    for d in range(r0 + 1):
        rhs = A.code(r0 - d - 1)
        if A.dual(d) != (rhs.scaled(beta) if rhs.dimension else rhs):
            return False
    return True


def _golden_analyses():
    """The ``Analysis`` of every golden set under its own order and glex."""
    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        for o in {order or GREVLEX, TermOrder("glex")}:
            yield name, Analysis(X, o)


def test_duality_verification_matches_the_rref_oracle():
    """On every golden set meeting the criterion the orthogonality product
    and the RREF comparison both accept beta, and both reject beta with any
    single entry changed."""
    holding = 0
    for name, A in _golden_analyses():
        cert = global_duality(A)
        if not cert.holds:
            continue
        holding += 1
        f = A.X.field
        assert verify_duality(A, cert.beta) == cert.verified_degrees
        assert _verify_duality_by_rref(A, cert.beta)
        for i in range(A.X.m):
            for b in range(1, f.q):
                if b == cert.beta[i]:
                    continue
                wrong = list(cert.beta)
                wrong[i] = b
                assert not _verify_duality_by_rref(A, wrong)
                with pytest.raises(InternalInconsistency, match="duality verification"):
                    verify_duality(A, wrong)
    assert holding >= 4


def test_global_duality_fails_on_a_wrong_beta(five_points_frame, monkeypatch):
    """A parity-check vector with one entry changed does not pass."""
    from rmcode import duality

    real = duality.verify_duality

    def with_wrong_entry(A, beta):
        wrong = list(beta)
        wrong[0] = A.X.field.add(int(wrong[0]), 1)
        return real(A, wrong)

    monkeypatch.setattr(duality, "verify_duality", with_wrong_entry)
    with pytest.raises(InternalInconsistency, match="degree 0"):
        global_duality(five_points_frame)


def test_global_duality_checks_min_distance_two(five_points_frame, monkeypatch):
    """The minimum distance of C_X(r0-1) comes from its one-class dual by
    MacWilliams, with no budget, and a wrong answer is a trap."""
    from rmcode import duality

    assert global_duality(five_points_frame).holds
    monkeypatch.setattr(
        duality, "macwilliams", lambda B, k, q: [1, 1] + [0] * (len(B) - 2)
    )
    with pytest.raises(InternalInconsistency, match="min distance"):
        global_duality(five_points_frame)


def test_parity_shortcut_matches_the_evaluation_route():
    """Where 2d >= r0, H(2d) = m and self_orthogonal answers False with no
    degree-2d evaluation; the all-ones parity of the evaluations of the
    degree-2d standard monomials says the same."""
    seen = 0
    for _, A in _golden_analyses():
        X, r0 = A.X, A.hd.r0
        for d in range((r0 + 1) // 2, r0 + 1):
            assert A.hd.value(2 * d) == X.m
            layer = standard_monomials_upto(A.gb, X.s, 2 * d)[2 * d]
            assert self_orthogonal(A, d) == _ones_parity(X.field, X.eval_monomials(layer))
            seen += 1
    assert seen


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
                    Poly(A.X.field, A.X.s, {monomial_mul(u1, u2): 1}), A.gb
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
    a = F4.p  # the code of the basis root a, a generator of F_4^*
    a2 = F4.mul(a, a)
    X = PointSet(F4, [[1, 0, 1], [a, 0, 1], [a2, 0, 1], [0, 1, 1], [0, a2, 1], [0, a, 1]])
    A = Analysis(X)
    assert 1 in self_dual_report(A)["self_dual_degrees"]
    assert duality_oracle.self_dual(A, 1)
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

    a = F4.p
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
    assert A.gb.to_strings() == ["t1^5-t1*t2^4"]


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


def _random_analyses(count, seed):
    """``count`` seeded random subsets of P^1 and P^2 over F_2, F_3, F_4 and
    F_5, each under grevlex and glex."""
    rng = random.Random(seed)
    fields = [Field(2), Field(3), Field(2, 2), Field(5)]
    for _ in range(count):
        f, s = rng.choice(fields), rng.choice([2, 3])
        every = points_full_projective(s, f).coords
        m = rng.randint(3, min(10, len(every)))
        X = PointSet(f, every[rng.sample(range(len(every)), m)], canonicalize=False)
        for order in (GREVLEX, TermOrder("glex")):
            yield Analysis(X, order)


def _oracle_analyses():
    return [A for _, A in _golden_analyses()] + list(_random_analyses(60, seed=17))


def test_self_duality_matches_the_rref_oracles():
    """On the golden corpus and 60 seeded random sets, each under two
    orders, the self-dual degrees equal those found by comparing C_X(d)
    with its dual, and over a Gorenstein ideal the classification equals
    the one that evaluates the degree-2d standard monomials."""
    seen = collections.Counter()
    for A in _oracle_analyses():
        rep = self_dual_report(A)
        assert rep["self_dual_degrees"] == duality_oracle.self_dual_degrees(A)
        cls = classify(A)
        if cls.gorenstein:
            got = gorenstein_selfdual_classify(A, cls, rep)
            assert got == duality_oracle.gorenstein_classification(A)
            seen["gorenstein"] += 1
            seen["strict"] += any(e["self_dual"] for e in got)
        seen["self_dual"] += bool(rep["self_dual_degrees"])
    assert seen["gorenstein"] >= 40 and seen["self_dual"] >= 10 and seen["strict"] >= 5


def test_local_duality_matches_the_rref_oracle():
    """On the golden corpus and 60 seeded random sets, each under two
    orders, every split that meets conditions (1)-(3) passes both the one
    product and the RREF comparison (up to 6 splits per essential monomial);
    with one entry of gamma changed, the product raises exactly when the
    RREF comparison rejects."""
    rng = random.Random(5)
    seen = collections.Counter()
    for A in _oracle_analyses():
        f, isx = A.X.field, A.isx
        for t_e in isx.essential:
            valid = 0
            for g1, g2 in _splits(A, projective_mode=False):
                if valid == 6:
                    break
                try:
                    rep = local_duality_verify(A, g1, g2, t_e)
                except ConditionFailed:
                    continue
                valid += 1
                assert duality_oracle.local_duality(A, g1, g2, rep["gamma"])
                seen["valid"] += 1
                if f.q == 2:
                    continue
                i = rng.randrange(A.X.m)
                unit = rng.randrange(2, f.q)
                old = isx.values[i]
                isx.values[i] = f.mul(unit, old)
                try:
                    wrong = list(rep["gamma"])
                    wrong[i] = f.div(indicator_polys(isx)[i].terms.get(t_e, 0), isx.values[i])
                    if duality_oracle.local_duality(A, g1, g2, wrong):
                        local_duality_verify(A, g1, g2, t_e)
                        seen["changed_accepted"] += 1
                    else:
                        with pytest.raises(InternalInconsistency, match="local duality"):
                            local_duality_verify(A, g1, g2, t_e)
                        seen["changed_rejected"] += 1
                finally:
                    isx.values[i] = old
    assert seen["valid"] >= 50 and seen["changed_rejected"] >= 20


def test_gorenstein_classification_trap_runs_in_every_degree(monkeypatch):
    """A self-dual report that marks a degree with r0 != 2d+1 self-dual
    contradicts the classification, whichever degree it marks."""
    from rmcode import duality

    A = Analysis(PointSet(Field(5), [[1, 1], [2, 1], [3, 1], [4, 1]]))
    cls = classify(A)
    assert cls.gorenstein and A.hd.r0 == 3
    real = self_dual_report(A)
    assert gorenstein_selfdual_classify(A, cls, real)
    for d in (2, 3):  # r0 = 3 = 2d+1 only at d = 1
        marked = dict(real, self_dual_degrees=[d])
        monkeypatch.setattr(duality, "self_dual_report", lambda A: marked)
        with pytest.raises(InternalInconsistency, match="parity-check classification"):
            gorenstein_selfdual_classify(A, cls)
        with pytest.raises(InternalInconsistency, match="parity-check classification"):
            gorenstein_selfdual_classify(A, cls, marked)


def test_local_duality_rejects_a_changed_gamma_entry(nine_points, F3):
    """With any one entry of gamma changed, gamma . ev(Gamma1) leaves
    ev(Gamma2)^perp: the orthogonality product and the RREF comparison both
    reject it."""
    A = Analysis(nine_points.X)
    g1 = [parse_monomial(3, t) for t in ("t1", "t2", "t3")]
    g2 = [
        parse_monomial(3, t)
        for t in ("t1^2*t3", "t1*t2*t3", "t1*t3^2", "t2^2*t3", "t2*t3^2", "t3^3")
    ]
    t_e = parse_monomial(3, "t1^2*t2^2")
    gamma = local_duality_verify(A, g1, g2, t_e)["gamma"]
    assert duality_oracle.local_duality(A, g1, g2, gamma)
    values = A.isx.values
    for i in range(A.X.m):
        old = values[i]
        values[i] = F3.neg(old)
        wrong = list(gamma)
        wrong[i] = F3.neg(gamma[i])
        assert not duality_oracle.local_duality(A, g1, g2, wrong)
        with pytest.raises(InternalInconsistency, match="local duality"):
            local_duality_verify(A, g1, g2, t_e)
        values[i] = old
