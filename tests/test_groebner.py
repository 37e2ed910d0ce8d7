import collections
import itertools
import random

import numpy as np
import pytest

from rmcode import linalg
from rmcode.analysis import Analysis
from rmcode.errors import Unsupported
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.artinian import classify
from rmcode.groebner import (
    GroebnerBasis,
    gb_certify,
    minimal_generator_count,
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
from rmcode.variety import PointSet, points_full_projective, points_parse, vanishing_ideal

from footprint_oracle import MonomialIdeal, monomial_colon, monomial_dim_degree
from groebner_oracle import (
    basis_of,
    buchberger,
    certify_by_division,
    eval_polys,
    minimal_generator_count_all_degrees,
    mul_term,
    normal_form,
    polys_of,
)


def test_buchberger_quartic_completion(F4):
    gens = [parse_poly(F4, 3, "t1*t2"), parse_poly(F4, 3, "t1^3+t2^3+t3^3")]
    gb = buchberger(gens, GREVLEX)
    assert gb.to_strings() == ["t1*t2", "t1^3+t2^3+t3^3", "t2^4+t2*t3^3"]
    assert gb_certify(gb)


def test_buchberger_coprime_leads(F3):
    gens = [parse_poly(F3, 3, "t2^3-t2*t3^2"), parse_poly(F3, 3, "t1^3-t1*t3^2")]
    gb = buchberger(gens, GREVLEX)
    assert gb.to_strings() == ["t2^3-t2*t3^2", "t1^3-t1*t3^2"]


def test_buchberger_zero_input(F3):
    gb = buchberger([Poly(F3, 3)], GREVLEX)
    assert gb.leads == () == gb.rows and gb_certify(gb)


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
        assert buchberger(shuffled, GREVLEX).to_strings() == reference.to_strings()


def test_certify_true_for_buchberger_output(F4):
    gb = buchberger(
        [parse_poly(F4, 3, "t1*t2"), parse_poly(F4, 3, "t1^3+t2^3+t3^3")], GREVLEX
    )
    assert gb_certify(gb)


def test_certify_with_last_variable_appended(five_points_socle, F3):
    """(I(X), t4) has for a Groebner basis t4 and the generators of I(X)
    whose lead is free of t4, each with its terms in t4 dropped."""
    gb = five_points_socle.gb
    gens = [
        Poly(F3, 4, {u: c for u, c in g.terms.items() if not u[3]})
        for u, g in zip(gb.leads, polys_of(gb))
        if not u[3]
    ]
    extended = basis_of([parse_poly(F3, 4, "t4"), *gens], gb.order)
    assert gb_certify(extended) and certify_by_division(extended)


CHART = [[a, b, c, 1] for a in range(7) for b in range(7) for c in range(7)]


def _chart_set(n, seed):
    """n points of the chart t4 = 1 of P^3(F_7), drawn with the seed."""
    return PointSet(Field(7), random.Random(seed).sample(CHART, n))


def _corrupted(gb, i):
    """The basis without generator i, and the basis with one coefficient
    of generator i changed: its first nonzero one, plus 1."""
    polys = polys_of(gb)
    rows = [row.copy() for row in gb.rows]
    j = int(np.flatnonzero(rows[i])[0])
    rows[i][j] = gb.field.add(int(rows[i][j]), 1)
    changed = GroebnerBasis(gb.order, gb.field, gb.nvars, gb.leads, rows)
    return basis_of(polys[:i] + polys[i + 1 :], gb.order), changed


def test_generic_chart_set_certifies_and_every_corruption_fails():
    """60 random points of the chart t4 = 1 of P^3(F_7): 28 generators in
    degrees 6 and 7 with 360 non-coprime pairs of leads.  The interpolated
    basis certifies; without any one generator, or with one coefficient of
    any one generator changed, it does not."""
    gb = vanishing_ideal(_chart_set(60, 60)).gb
    assert len(gb.leads) == 28 and gb_certify(gb)
    for i in range(len(gb.leads)):
        assert not any(map(gb_certify, _corrupted(gb, i)))


def test_certification_verdicts_equal_the_division_oracle():
    """Row certification and certification by division agree on the
    bases of I(X) and of (I(X), h) of the golden corpus, of seeded random
    sets and of 24 random points of the chart of P^3(F_7), under grevlex
    and glex, and on those bases with a generator dropped or a
    coefficient changed; both verdicts occur."""
    sets = [points_parse(load_entry(name)[0])[0] for name in CORPUS]
    rng = random.Random(2718)
    for f in (Field(2), Field(3), Field(5), Field(2, 2), Field(3, 2)):
        for s in (2, 3):
            points = points_full_projective(s, f).coords.tolist()
            sets.append(PointSet(f, rng.sample(points, rng.randint(3, min(12, len(points))))))
    sets.append(_chart_set(24, 24))
    verdicts = collections.Counter()
    for X in sets:
        for order in (GREVLEX, TermOrder("glex")):
            A = Analysis(X, order)
            for gb in (A.gb, classify(A).J_basis) if X.m < 24 else (A.gb,):
                # generators with a term besides the lead, in a basis of two or more
                dense = [i for i, row in enumerate(gb.rows) if row.any() and len(gb.rows) > 1]
                picks = rng.sample(dense, min(2, len(dense)))
                for basis in [gb, *(b for i in picks for b in _corrupted(gb, i))]:
                    got = gb_certify(basis)
                    assert got == certify_by_division(basis)
                    verdicts[got] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50


def test_certify_false(F3):
    gens = [parse_poly(F3, 2, "t1+t2"), parse_poly(F3, 2, "t1^2")]
    assert not gb_certify(basis_of(gens, GREVLEX))
    # running buchberger adds the missing element
    assert (0, 2) in buchberger(gens, GREVLEX).leads


def test_from_polys_rejects_a_term_outside_the_staircase(F3):
    with pytest.raises(KeyError):
        basis_of([parse_poly(F3, 3, "t1"), parse_poly(F3, 3, "t2^2+t1*t3")], GREVLEX)


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
            vanishes = not np.any(eval_polys(X, [f]))
            assert normal_form(f, gb).is_zero() == vanishes


def test_minimal_generator_counts(five_points_frame, nine_points, four_points):
    X, gb, hd = five_points_frame.X, five_points_frame.gb, five_points_frame.hd
    # the products g*w that span the ideal in degrees <= r0 + 1 vanish on X
    products = [
        mul_term(g, w)
        for d in range(1, hd.r0 + 2)
        for g in polys_of(gb)
        if g.homogeneous_degree() <= d
        for w in monomials_of_degree(X.s, d - g.homogeneous_degree())
    ]
    assert products and not np.any(eval_polys(X, products))
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
        for g in polys_of(gb):
            dg = g.homogeneous_degree()
            if dg > d:
                continue
            for w in monomials_of_degree(nv, d - dg):
                row = np.zeros(len(index), dtype=np.int64)
                for u, c in mul_term(g, w).terms.items():
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
    """Ranking products only at the basis degrees above the lowest equals
    one rank in every degree 1..r0 + 1, and two ranks per degree, on the
    golden corpus under grevlex and glex and on 120 seeded random sets over
    prime and extension fields, many with bases spread over several
    degrees."""
    orders = (GREVLEX, TermOrder("glex"))
    cases = []
    for name in CORPUS:
        X, _ = points_parse(load_entry(name)[0])
        cases += [(X, order) for order in orders]
    rng = random.Random(6060)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]
    for trial in range(120):
        f = fields[trial % len(fields)]
        s = rng.choice([2, 3, 4])
        points = points_full_projective(s, f).coords.tolist()
        rows = rng.sample(points, rng.randint(2, min(12, len(points))))
        cases.append((PointSet(f, rows), orders[trial % 2]))
    spread = 0
    for X, order in cases:
        A = Analysis(X, order)
        got = minimal_generator_count(A.gb, A.hd.r0)
        assert got == minimal_generator_count_all_degrees(A.gb, A.hd.r0)
        assert got == _minimal_generator_count_two_ranks(A.gb, A.hd.r0)
        spread += len(set(map(sum, A.gb.leads))) > 1
    assert spread >= 50


def test_monomial_ideal_guard():
    with pytest.raises(Unsupported):
        monomial_dim_degree(MonomialIdeal(11, ((1,) + (0,) * 10,)))
