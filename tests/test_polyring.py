import random

import pytest

from rmcode.errors import DimensionMismatch, ParseError, RingMismatch
from rmcode.groebner import normal_form
from rmcode.polyring import (
    GREVLEX,
    Poly,
    TermOrder,
    monomials_of_degree,
    parse_monomial,
    parse_poly,
)

from groebner_oracle import buchberger
from pointwise_oracle import evaluate


def test_compare_grevlex_spec_cases():
    go = TermOrder("grevlex")
    assert go.compare((1, 0, 0, 1), (0, 1, 1, 0)) == -1  # t1t4 < t2t3
    assert go.compare((2, 0, 0), (1, 1, 1)) == -1        # degree wins
    assert go.compare((1, 1), (1, 1)) == 0


def test_compare_glex_permuted():
    gl = TermOrder("glex", (3, 2, 1))
    assert gl.compare((0, 1, 1), (1, 0, 1)) == 1          # t3t2 > t3t1


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        GREVLEX.compare((1, 0), (1, 0, 0))


def test_order_key_matches_the_permuted_tuple_and_rejects_bad_perms():
    """The key reads its resolved permutation from a per-order cache and
    equals the tuple built from the permutation on every call."""
    rng = random.Random(11)
    for kind in ("grevlex", "glex"):
        for perm in ((), (1, 2, 3), (3, 1, 2), (2, 3, 1)):
            order = TermOrder(kind, perm)
            p = perm or (1, 2, 3)
            for _ in range(50):
                u = tuple(rng.randrange(4) for _ in range(3))
                if kind == "glex":
                    want = (sum(u), tuple(u[i - 1] for i in p))
                else:
                    want = (sum(u), tuple(-u[i - 1] for i in reversed(p)))
                assert order.key(u) == want
            assert order == TermOrder(kind, perm) and hash(order) == hash(TermOrder(kind, perm))
        bad = TermOrder(kind, (1, 1, 2))
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                bad.key((1, 0, 0))
        with pytest.raises(DimensionMismatch):
            TermOrder(kind, (3, 2, 1)).key((1, 0))


def test_bad_order_kind():
    with pytest.raises(ValueError):
        TermOrder("lex")


ORDERS = [
    TermOrder("grevlex"),
    TermOrder("glex"),
    TermOrder("grevlex", (3, 1, 4, 2, 6, 5)),
    TermOrder("glex", (6, 5, 4, 3, 2, 1)),
]


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "glex", "grevlexp", "glexp"])
def test_order_axioms_random(order):
    """Totality, antisymmetry, transitivity, 1 minimal, multiplicativity."""
    rng = random.Random(20240817)
    s = 6
    one = (0,) * s

    def rand_mono():
        # keep total degree <= 8
        m = [0] * s
        for _ in range(rng.randint(0, 8)):
            m[rng.randrange(s)] += 1
        return tuple(m)

    for _ in range(1000):
        u, v, w = rand_mono(), rand_mono(), rand_mono()
        cu, cv = order.compare(u, v), order.compare(v, u)
        assert cu == -cv
        assert (cu == 0) == (u == v)
        if order.compare(u, v) <= 0 and order.compare(v, w) <= 0:
            assert order.compare(u, w) <= 0
        assert order.compare(one, u) <= 0
        if order.compare(u, v) < 0:
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert order.compare(uw, vw) < 0


def test_poly_eval_direct(F3):
    f = parse_poly(F3, 4, "t3^2-t3*t4")
    assert evaluate(f, [2, 2, 2, 1]) == 2


def test_poly_eval_homogeneity(F5):
    rng = random.Random(7)
    f = parse_poly(F5, 3, "t1^2*t3+2*t2^3+4*t1*t2*t3")
    e = 3
    for _ in range(20):
        P = [rng.randrange(5) for _ in range(3)]
        lam = rng.randrange(1, 5)
        lamP = [F5.mul(lam, x) for x in P]
        assert evaluate(f, lamP) == F5.mul(F5.pow_(lam, e), evaluate(f, P))


def test_poly_eval_constant(F3):
    one = Poly.monomial(F3, 3, (0, 0, 0))
    assert evaluate(one, [0, 1, 2]) == 1
    with pytest.raises(DimensionMismatch):
        evaluate(one, [0, 1])


def test_parse_print_roundtrip(F3, F4):
    for text in ("t1*t3-t1*t4", "t2^2-t1*t3-t1*t4+t3*t4+t4^2", "-t1^2+t2*t4"):
        f = parse_poly(F3, 4, text)
        assert parse_poly(F3, 4, f.to_str()) == f
    g = parse_poly(F4, 3, "t2^3+a*t1^2*t3+(1+a)*t1*t3^2+t3^3")
    assert parse_poly(F4, 3, g.to_str()) == g
    assert parse_poly(F4, 2, "a^2*t1") == parse_poly(F4, 2, "(1+a)*t1")
    with pytest.raises(ParseError):
        parse_poly(F3, 2, "")
    with pytest.raises(ParseError):
        parse_poly(F3, 2, "t5")


@pytest.mark.parametrize("text", ["t1+", "t1-", "t1*", "2*", "t1*+t2", "t1**t2", "(1)*"])
def test_parse_poly_rejects_a_dangling_operator(F3, text):
    with pytest.raises(ParseError, match="operator|dangling"):
        parse_poly(F3, 2, text)


def test_parse_monomial():
    assert parse_monomial(4, "t1^2*t2") == (2, 1, 0, 0)
    assert parse_monomial(3, "1") == (0, 0, 0)
    assert parse_monomial(3, "u") == (0, 0, 1)
    with pytest.raises(ParseError):
        parse_monomial(3, "t1+t2")


def test_ring_mismatch(F3, F5):
    with pytest.raises(RingMismatch):
        parse_poly(F3, 2, "t1") + parse_poly(F5, 2, "t1")


def test_monomials_of_degree_count():
    assert len(list(monomials_of_degree(3, 4))) == 15  # C(6, 2)


# normal-form behavior belongs to the division contract exercised here


@pytest.fixture(scope="module")
def small_gb(F3):
    gens = [
        parse_poly(F3, 4, "t2-t3"),
        parse_poly(F3, 4, "t3^2-t4^2"),
        parse_poly(F3, 4, "t1^2-t1*t3"),
    ]
    return buchberger(gens, GREVLEX)


def test_normal_form_examples(F3, small_gb):
    r = normal_form(parse_poly(F3, 4, "t1^2"), small_gb)
    assert r == parse_poly(F3, 4, "t1*t3")
    # independent membership oracle: t1^2 - t1*t3 vanishes on the four points
    # whose ideal the basis generates, and t1*t3 is outside the initial ideal
    points = [[2, 2, 2, 1], [1, 1, 1, 1], [0, 1, 1, 1], [0, 2, 2, 1]]
    diff = parse_poly(F3, 4, "t1^2") - r
    assert all(evaluate(diff, P) == 0 for P in points)
    assert all(
        not all(a <= b for a, b in zip(g.leading_monomial(GREVLEX), (1, 0, 1, 0)))
        for g in small_gb.gens
    )
    g = parse_poly(F3, 4, "t1^2-t1*t3")
    member = g.mul_term(parse_monomial(4, "t2")) + g.mul_term(parse_monomial(4, "t4"))
    assert normal_form(member, small_gb).is_zero()
    standard = parse_poly(F3, 4, "t1*t3+t4^2")
    assert normal_form(standard, small_gb) == standard


def test_normal_form_idempotent_and_linear(F3, small_gb):
    rng = random.Random(99)
    monos = list(monomials_of_degree(4, 3))

    def rand_poly():
        return Poly(
            F3, 4, {m: rng.randrange(3) for m in rng.sample(monos, 5)}
        )

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        rf = normal_form(f, small_gb)
        assert normal_form(rf, small_gb) == rf
        c = rng.randrange(1, 3)
        assert normal_form(f.scale(c) + g, small_gb) == rf.scale(c) + normal_form(
            g, small_gb
        )
