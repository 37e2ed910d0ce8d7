import itertools
import random

import numpy as np
import pytest

from rmcode import linalg
from rmcode.analysis import Analysis
from rmcode.errors import Unsupported
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import (
    GroebnerBasis,
    gb_certify,
    minimal_generator_count,
    normal_form,
    standard_monomials_upto,
)
from rmcode.polyring import (
    GREVLEX,
    Poly,
    TermOrder,
    monomials_of_degree,
    parse_monomial,
    parse_poly,
)
from rmcode.variety import PointSet, points_full_projective, points_parse

from footprint_oracle import MonomialIdeal, monomial_colon, monomial_dim_degree
from groebner_oracle import buchberger


def test_buchberger_quartic_completion(F4):
    gens = [parse_poly(F4, 3, "t1*t2"), parse_poly(F4, 3, "t1^3+t2^3+t3^3")]
    gb = buchberger(gens, GREVLEX)
    assert gb.to_strings() == ["t1*t2", "t1^3+t2^3+t3^3", "t2^4+t2*t3^3"]
    assert gb.certified


def test_buchberger_coprime_leads(F3):
    gens = [parse_poly(F3, 3, "t2^3-t2*t3^2"), parse_poly(F3, 3, "t1^3-t1*t3^2")]
    gb = buchberger(gens, GREVLEX)
    assert gb.to_strings() == ["t2^3-t2*t3^2", "t1^3-t1*t3^2"]


def test_buchberger_zero_input(F3):
    gb = buchberger([Poly.zero(F3, 3)], GREVLEX)
    assert gb.gens == () and gb.certified


def test_buchberger_input_order_independence(F3):
    gens = [
        parse_poly(F3, 4, "t3^2-t4^2"),
        parse_poly(F3, 4, "t2*t3-t2*t4"),
        parse_poly(F3, 4, "t2^2-t1*t3-t1*t4+t3*t4+t4^2"),
        parse_poly(F3, 4, "t1*t2"),
        parse_poly(F3, 4, "t1^2-t1*t4"),
    ]
    reference = buchberger(gens, GREVLEX)
    rng = random.Random(5)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, GREVLEX).gens == reference.gens


def test_certify_true_for_buchberger_output(F4):
    gb = buchberger(
        [parse_poly(F4, 3, "t1*t2"), parse_poly(F4, 3, "t1^3+t2^3+t3^3")], GREVLEX
    )
    assert gb_certify(gb)


def test_certify_with_last_variable_appended(five_points_socle, F3):
    gb = five_points_socle.gb
    extended = GroebnerBasis(gb.order, gb.gens + (parse_poly(F3, 4, "t4"),))
    assert gb_certify(extended)


def test_certify_false(F3):
    bad = GroebnerBasis(GREVLEX, [parse_poly(F3, 2, "t1+t2"), parse_poly(F3, 2, "t1^2")])
    assert not gb_certify(bad)
    # running buchberger adds the missing element
    fixed = buchberger(bad.gens, GREVLEX)
    assert any(g.leading_monomial(GREVLEX) == (0, 2) for g in fixed.gens)


def test_standard_monomials_frame_example(five_points_frame):
    gb = five_points_frame.gb
    got = standard_monomials_upto(gb, 4, 2)[2]
    want = {
        parse_monomial(4, t) for t in ("t1*t4", "t2*t4", "t3^2", "t3*t4", "t4^2")
    }
    assert set(got) == want
    # descending under the order
    keys = [gb.order.key(u) for u in got]
    assert keys == sorted(keys, reverse=True)


def test_standard_monomials_degree_zero(nine_points):
    assert standard_monomials_upto(nine_points.gb, 3, 0) == [((0, 0, 0),)]


def test_standard_monomials_degree_one(nine_points):
    layer = standard_monomials_upto(nine_points.gb, 3, 1)[1]
    assert set(layer) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_monomial_dim_degree_cases():
    assert monomial_dim_degree(MonomialIdeal(3, ((1, 0, 0), (0, 1, 0)))) == (1, 1)
    assert monomial_dim_degree(MonomialIdeal(3, ((3, 0, 0), (0, 3, 0)))) == (1, 9)
    assert monomial_dim_degree(MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))) == (0, 2)
    with pytest.raises(ValueError):
        monomial_dim_degree(MonomialIdeal(3, ((1, 0, 0),)))


def test_monomial_colon_cases():
    L = MonomialIdeal(2, ((2, 0),))
    assert monomial_colon(L, [(1, 0)]).gens == ((1, 0),)
    L2 = MonomialIdeal(2, ((3, 0), (0, 3)))
    got = monomial_colon(L2, [(2, 2)])
    assert set(got.gens) == {(1, 0), (0, 1)}
    # exhaustive membership oracle on monomials of degree <= 4
    for u in itertools.product(range(5), repeat=2):
        if sum(u) > 4:
            continue
        in_colon = got.contains(u)
        direct = L2.contains((u[0] + 2, u[1] + 2))
        assert in_colon == direct
    assert monomial_colon(L2, [(0, 0)]) == L2


def test_membership_oracle_equivalence(nine_points, F3):
    """normal_form(f, G) = 0 iff f vanishes on all of X."""
    X, gb = nine_points.X, nine_points.gb
    rng = random.Random(11)
    from rmcode.polyring import monomials_of_degree

    for d in (2, 3, 4):
        monos = list(monomials_of_degree(3, d))
        for _ in range(20):
            f = Poly(F3, 3, {u: rng.randrange(3) for u in rng.sample(monos, 4)})
            if f.is_zero():
                continue
            vanishes = not np.any(X.eval_polys([f]))
            assert normal_form(f, gb).is_zero() == vanishes


def test_minimal_generator_counts(five_points_frame, nine_points, four_points):
    X, gb, hd = five_points_frame.X, five_points_frame.gb, five_points_frame.hd
    # the products g*w that span the ideal in degrees <= r0 + 1 vanish on X
    products = [
        g.mul_term(w)
        for d in range(1, hd.r0 + 2)
        for g in gb.gens
        if g.homogeneous_degree() <= d
        for w in monomials_of_degree(X.s, d - g.homogeneous_degree())
    ]
    assert products and not np.any(X.eval_polys(products))
    assert minimal_generator_count(gb, hd.r0) == 5  # not CI
    assert minimal_generator_count(nine_points.gb, nine_points.hd.r0) == 2  # CI: s - 1 = 2
    assert minimal_generator_count(four_points.gb, four_points.hd.r0) == 3  # CI in s = 4


def _minimal_generator_count_two_ranks(gb, r0):
    """Oracle: per degree, the rank of all products g*w of the generators
    with monomials minus the rank of those with deg w >= 1."""
    fld, nv = gb.field, gb.nvars
    total = 0
    for d in range(1, r0 + 2):
        index = {u: i for i, u in enumerate(monomials_of_degree(nv, d))}
        products, via_lower = [], []
        for g in gb.gens:
            dg = g.homogeneous_degree()
            if dg > d:
                continue
            for w in monomials_of_degree(nv, d - dg):
                row = np.zeros(len(index), dtype=np.int64)
                for u, c in g.mul_term(w).terms.items():
                    row[index[u]] = c
                products.append(row)
                if sum(w) >= 1:
                    via_lower.append(row)
        if products:
            total += linalg.rank(fld, np.stack(products))
        if via_lower:
            total -= linalg.rank(fld, np.stack(via_lower))
    return total


def test_minimal_generator_count_matches_the_two_rank_oracle():
    """The staircase count of dim I_d plus one rank per degree equals two
    ranks per degree on the golden corpus under grevlex and glex and on
    seeded random sets over prime and extension fields."""
    orders = (GREVLEX, TermOrder("glex"))
    cases = []
    for name in CORPUS:
        X, _ = points_parse(load_entry(name)[0])
        cases += [(X, order) for order in orders]
    rng = random.Random(6060)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]
    for trial in range(24):
        f = fields[trial % len(fields)]
        s = rng.choice([2, 3, 4])
        points = points_full_projective(s, f).coords.tolist()
        rows = rng.sample(points, rng.randint(2, min(12, len(points))))
        cases.append((PointSet(f, rows), orders[trial % 2]))
    for X, order in cases:
        A = Analysis(X, order)
        want = _minimal_generator_count_two_ranks(A.gb, A.hd.r0)
        assert minimal_generator_count(A.gb, A.hd.r0) == want


def test_monomial_ideal_guard():
    with pytest.raises(Unsupported):
        monomial_dim_degree(MonomialIdeal(11, ((1,) + (0,) * 10,)))
