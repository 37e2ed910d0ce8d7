import time

import numpy as np
import pytest

from rmcode.errors import (
    DivisionByZero,
    FieldMismatch,
    NoModulusAvailable,
    NonPrimeP,
    ParseError,
    ReducibleModulus,
    Unsupported,
)
from functools import lru_cache

from rmcode import gf
from rmcode.gf import BUILTIN_MODULI, Field, is_irreducible, is_prime, search_modulus

from gf_oracle import (
    horner_tables,
    monics,
    order_of,
    poly_mulmod,
    pow_arr,
    primitive_element,
    reducible_monics,
    table_matmul,
)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


# every field order up to 81: all primes plus the built-in extension orders
ALL_Q = sorted([p for p in range(2, 82) if _is_prime(p)] + sorted(BUILTIN_MODULI))


def _field_for(q):
    for p in (2, 3, 5, 7):
        if q % p == 0:
            k = 0
            qq = q
            while qq > 1:
                qq //= p
                k += 1
            return Field(p, k)
    return Field(q)


def test_field_create_prime():
    F = Field(3, 1)
    assert F.q == 3 and primitive_element(F) == 2


def test_field_create_with_modulus():
    F = Field(3, 2, [1, 0, 1])  # x^2 + 1
    assert F.q == 9
    assert F.format_element(primitive_element(F)) == "1+a"


def test_field_create_nonprime():
    with pytest.raises(NonPrimeP):
        Field(4, 1)


def test_field_create_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        Field(3, 2, [1, 2, 1])  # (x+1)^2


def test_field_create_no_modulus_outside_table():
    with pytest.raises(NoModulusAvailable):
        Field(11, 2)


def test_inverse_examples():
    F5 = Field(5)
    assert F5.inv(3) == 2
    assert F5.inv(2) == 3
    # inv(-2) = inv(3) = 2 = -3 mod 5
    assert F5.inv(F5.neg(2)) == F5.neg(3)


def test_generator_power_identity():
    F9 = Field(3, 2)
    assert F9.pow_(primitive_element(F9), F9.q - 1) == 1


def _orders(F):
    return {x: order_of(F, x) for x in range(1, F.q)}


def test_primitive_element_f4():
    F = Field(2, 2)
    assert primitive_element(F) == F.p  # the basis root a
    # every element of F_4^* other than 1 has order 3
    assert all(o == 3 for x, o in _orders(F).items() if x != 1)


@pytest.mark.parametrize("q", sorted(BUILTIN_MODULI))
def test_builtin_root_generates_the_unit_group(q):
    F = _field_for(q)
    assert F.modulus == BUILTIN_MODULI[q]
    assert order_of(F, F.p) == q - 1  # the code p is the basis root a


def test_primitive_element_f9_x2_plus_1():
    F = Field(3, 2, [1, 0, 1])
    # independent oracle: exhaustive orders over the 8 nonzero elements
    orders = _orders(F)
    smallest = min(x for x, o in orders.items() if o == 8)
    assert primitive_element(F) == smallest
    assert F.format_element(smallest) == "1+a"
    # the basis root itself only has order 4 for this modulus
    assert orders[F.p] == 4


def test_primitive_element_f7():
    F = Field(7)
    orders = _orders(F)
    assert orders[3] == 6 and orders[2] == 3
    assert primitive_element(F) == 3


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity, inverses: all of F_q^3."""
    F = _field_for(q)
    xs = np.arange(q)
    a = xs[:, None, None]
    b = xs[None, :, None]
    c = xs[None, None, :]
    A = np.broadcast_to(a, (q, q, q))
    B = np.broadcast_to(b, (q, q, q))
    C = np.broadcast_to(c, (q, q, q))
    assert np.array_equal(F.add_arr(F.add_arr(A, B), C), F.add_arr(A, F.add_arr(B, C)))
    assert np.array_equal(F.mul_arr(F.mul_arr(A, B), C), F.mul_arr(A, F.mul_arr(B, C)))
    assert np.array_equal(F.add_arr(A[..., 0], B[..., 0]), F.add_arr(B[..., 0], A[..., 0]))
    assert np.array_equal(F.mul_arr(A[..., 0], B[..., 0]), F.mul_arr(B[..., 0], A[..., 0]))
    assert np.array_equal(
        F.mul_arr(A, F.add_arr(B, C)),
        F.add_arr(F.mul_arr(A, B), F.mul_arr(A, C)),
    )
    # unique additive/multiplicative inverses
    add_tab = F.add_arr(A[..., 0], B[..., 0])
    assert np.array_equal((add_tab == 0).sum(axis=1), np.ones(q, dtype=int))
    mul_tab = F.mul_arr(A[..., 0], B[..., 0])
    assert np.array_equal((mul_tab[1:, :] == 1).sum(axis=1), np.ones(q - 1, dtype=int))


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius_and_unit_group_exhaustive(q):
    F = _field_for(q)
    xs = np.arange(q)
    X = np.broadcast_to(xs[:, None], (q, q))
    Y = np.broadcast_to(xs[None, :], (q, q))
    assert np.array_equal(
        pow_arr(F, F.add_arr(X, Y), F.p),
        F.add_arr(pow_arr(F, X, F.p), pow_arr(F, Y, F.p)),
    )
    assert np.all(pow_arr(F, xs[1:], q - 1) == 1)
    # multiplicative orders against stepping through the powers
    stepped = {}
    for x in range(1, q):
        n, acc = 1, x
        while acc != 1:
            acc, n = F.mul(acc, x), n + 1
        stepped[x] = n
    assert _orders(F) == stepped
    assert primitive_element(F) == min(x for x, n in stepped.items() if n == q - 1)


def test_large_prime_field_builds_fast():
    p = 2**31 - 1
    t0 = time.perf_counter()
    F = Field(p)
    assert time.perf_counter() - t0 < 1.0
    primes = (2, 3, 7, 11, 31, 151, 331)
    assert 2 * 3**2 * 7 * 11 * 31 * 151 * 331 == p - 1

    def primitive(g):
        return all(pow(g, (p - 1) // ell, p) != 1 for ell in primes)

    g = primitive_element(F)
    assert primitive(g)
    assert not any(primitive(x) for x in range(1, g))
    assert order_of(F, g) == p - 1
    assert order_of(F, 2) == 31  # 2^31 = 1 mod p


def test_characteristic_bound():
    # rejected before the primality test, which would take sqrt(p) steps
    for p in (2**31, 2**31 + 11, 2**61 - 1, 2**127 - 1):
        with pytest.raises(Unsupported):
            Field(p)


def test_inverse_of_zero_raises():
    for F in (Field(5), Field(3, 2)):
        with pytest.raises(DivisionByZero):
            F.inv(0)


def test_embedding_between_characteristics_raises():
    with pytest.raises(FieldMismatch):
        Field(3).embedding_into(Field(5, 2))


def test_literal_roundtrip():
    F = Field(3, 2)
    for code in range(F.q):
        assert F.parse_element(F.format_element(code)) == code
    assert F.parse_element("a^3") == F.pow_(F.p, 3)
    with pytest.raises(ParseError):
        F.parse_element("")
    with pytest.raises(ParseError):
        Field(5).parse_element("a")


@pytest.mark.parametrize(
    "small,big",
    [((3, 2), (3, 4)), ((2, 2), (2, 4)), ((2, 2), (2, 6)), ((2, 3), (2, 6))],
)
def test_embedding_preserves_arithmetic(small, big):
    F, G = Field(*small), Field(*big)
    t = F.embedding_into(G)
    assert t[0] == 0 and t[1] == 1
    for x in range(F.q):
        for y in range(F.q):
            assert t[F.add(x, y)] == G.add(int(t[x]), int(t[y]))
            assert t[F.mul(x, y)] == G.mul(int(t[x]), int(t[y]))
    # images are distinct (a ring embedding)
    assert len(set(int(v) for v in t)) == F.q


def test_irreducibility_matches_the_product_oracle():
    """Trial division agrees with the set of all products of two monic
    factors on every monic polynomial over F_2 and F_3 of degree <= 5 and
    over F_5 of degree <= 4."""
    checked = 0
    for p, top in ((2, 5), (3, 5), (5, 4)):
        for k in range(1, top + 1):
            reducible = reducible_monics(p, k)
            for f in monics(p, k):
                assert is_irreducible(f, p) == (f not in reducible), f
                checked += 1
    assert checked == 1205


def test_search_modulus_is_the_first_irreducible_in_code_order():
    """For every prime power q <= 1024: the built-in modulus where there is
    one, else the first monic polynomial in code order that is no product
    of two monic factors; every one is irreducible by the product oracle."""
    searched = 0
    for p in filter(is_prime, range(2, 1025)):
        k = 1
        while p**k <= 1024:
            mod, reducible = search_modulus(p, k), reducible_monics(p, k)
            assert mod not in reducible
            if p**k in BUILTIN_MODULI:
                assert mod == BUILTIN_MODULI[p**k]
            else:
                assert mod == next(f for f in monics(p, k) if f not in reducible)
                searched += k > 1
            k += 1
    assert searched == 16


def test_irreducibility_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")

    rng = __import__("random").Random(314159)
    x = sympy.symbols("x")
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        k = rng.randint(2, 5)
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        poly = sympy.Poly(
            sum(c * x**i for i, c in enumerate(coeffs)), x, domain=sympy.GF(p)
        )
        assert is_irreducible(tuple(coeffs), p) == poly.is_irreducible


def _tables_by_elements(F):
    """Oracle: the add, mul, neg and inv tables of an extension field by
    per-element arithmetic: digitwise sums, a reduced product of digit
    tuples for every pair, an inverse scan and a digitwise negation."""
    p, k, q = F.p, F.k, F.q
    weights = p ** np.arange(k)
    digits = np.array([F.coeffs_of(x) for x in range(q)])
    add = ((digits[:, None, :] + digits[None, :, :]) % p * weights).sum(axis=2)

    def code(coeffs):
        return sum(int(c) * p**e for e, c in enumerate(coeffs))

    mul = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(x, q):
            prod = poly_mulmod(list(digits[x]), list(digits[y]), F.modulus, p)
            mul[x, y] = mul[y, x] = code(prod)
    inv = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        inv[x] = next(y for y in range(1, q) if mul[x, y] == 1)
    neg = np.array([code((-c) % p for c in digits[x]) for x in range(q)])
    return add, mul, neg, inv


@pytest.mark.parametrize("q", sorted(BUILTIN_MODULI) + [121, 125, 169, 243, 343])
def test_tables_match_per_element_arithmetic(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    k = round(np.log(q) / np.log(p))
    F = Field(p, k, search_modulus(p, k))  # the built-in modulus when there is one
    add, mul, neg, inv = _tables_by_elements(F)
    xs = np.arange(F.q)
    X, Y = np.broadcast_to(xs[:, None], add.shape), np.broadcast_to(xs[None, :], add.shape)
    assert np.array_equal(F.add_arr(X, Y), add)
    assert np.array_equal(F.mul_arr(X, Y), mul)
    assert np.array_equal(F.neg_arr(xs), neg)
    assert [F.neg(x) for x in range(F.q)] == list(neg)
    assert [F.inv(x) for x in range(1, F.q)] == list(inv[1:])
    for arr in (F.add_arr(X, Y), F.mul_arr(X, Y), F.neg_arr(xs)):
        assert arr.dtype == np.int64


def test_largest_table_field_builds_fast():
    modulus = search_modulus(2, 10)
    t0 = time.perf_counter()
    F = Field(2, 10, modulus)
    assert time.perf_counter() - t0 < 3.0
    g = primitive_element(F)
    assert F.q == 1024 and order_of(F, g) == 1023
    assert F.mul(g, F.inv(g)) == 1


def _matmul_by_scalars(F, a, b):
    """Oracle: a @ b over F by the scalar triple loop."""
    n, inner = a.shape
    out = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i in range(n):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(inner):
                acc = F.add(acc, F.mul(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


MATMUL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                 (2**31 - 1, 1)]


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
def test_matmul_matches_the_scalar_triple_loop(p, k):
    F = Field(p, k)
    rng = np.random.default_rng(F.q % 1009)

    def codes(shape):
        # half of the entries among the top 1000 codes: near p = 2**31 a sum
        # of three such products overflows int64 without the block bound
        top = rng.integers(max(0, F.q - 1000), F.q, size=shape)
        return np.where(rng.random(shape) < 0.5, top, rng.integers(0, F.q, size=shape))

    for inner in (0, 1, 2, 3, 50):
        a, b = codes((4, inner)), codes((inner, 3))
        got = F.matmul(a, b)
        assert got.shape == (4, 3) and got.dtype == np.int64
        assert np.array_equal(got, _matmul_by_scalars(F, a, b))
        top = np.full((2, inner), F.q - 1)
        assert np.array_equal(F.matmul(top, top.T), _matmul_by_scalars(F, top, top.T))


@pytest.mark.parametrize("p,k", MATMUL_FIELDS)
def test_sub_mul_arr_matches_scalar_arithmetic(p, k):
    """The pivot update a - f*b, a column f of factors against a row b."""
    F = Field(p, k)
    rng = np.random.default_rng(F.q % 997)
    top = max(0, F.q - 50)
    for lo in (0, top):  # the top codes bound |a - f*b| near p = 2**31
        a = rng.integers(lo, F.q, size=(5, 7))
        f = rng.integers(lo, F.q, size=(5, 1))
        b = rng.integers(lo, F.q, size=(1, 7))
        got = F.sub_mul_arr(a, f, b)
        want = [
            [F.add(int(a[i, j]), F.neg(F.mul(int(f[i, 0]), int(b[0, j])))) for j in range(7)]
            for i in range(5)
        ]
        assert got.dtype == np.int64 and got.tolist() == want


# every extension field with tables: q = p^k <= 1024, k >= 2
TABLE_FIELDS = [
    (p, k) for p in range(2, 32) if is_prime(p) for k in range(2, 11) if p**k <= 1024
]


@lru_cache(maxsize=None)
def _table_field(p, k):
    return Field(p, k, search_modulus(p, k))


def test_tables_match_the_horner_builder():
    """The digitwise addition and negation tables and the square-and-multiply
    inverses equal the builder that scans the tables, on every table field."""
    assert len(TABLE_FIELDS) == 26
    for p, k in TABLE_FIELDS:
        F = _table_field(p, k)
        add, mul, neg, inv = horner_tables(F)
        for got, want in ((F._add_t, add), (F._mul_t, mul), (F._neg_t, neg), (F._inv_t, inv)):
            assert got.dtype == np.int64 and np.array_equal(got, want), (p, k)


def _codes(F, rng, shape):
    """Random codes, half of them q - 1: every digit of q - 1 is p - 1, the
    largest slice entry."""
    return np.where(rng.random(shape) < 0.5, F.q - 1, rng.integers(0, F.q, size=shape))


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_slice_products_match_the_table_loop(p, k):
    """On both sides of the crossover, l = 0 and a wide product included."""
    F = _table_field(p, k)
    rng = np.random.default_rng(F.q)
    cross = gf.SLICE_MIN_INNER * k
    for n, inner, c in ((3, 0, 4), (1, 1, 1), (5, cross - 1, 4), (4, cross, 6),
                        (2, cross + 1, 1), (7, 40, 9)):
        a, b = _codes(F, rng, (n, inner)), _codes(F, rng, (inner, c))
        want = table_matmul(F, a, b)
        for got in (F.matmul(a, b), F._slice_matmul(a, b)):
            assert got.shape == (n, c) and got.dtype == np.int64
            assert np.array_equal(got, want), (n, inner, c)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (7, 3), (3, 4), (2, 10), (31, 2)])
def test_slice_products_block_at_the_float_bound(p, k, monkeypatch):
    """The inner index is blocked where l*k*(p-1)**2 would reach
    FLOAT_EXACT.  At the real bound a block is astronomically long, so the
    bound is lowered to blocks of 1, 2 and 3 inner indices, and the
    products straddle those lengths.  Each block product is reduced once,
    and the sum of the blocks once more."""
    F = _table_field(p, k)
    rng = np.random.default_rng(F.q + 1)
    term = k * (p - 1) ** 2
    assert gf.FLOAT_EXACT == 2**53
    reduced, mod_exact = [], gf._mod_exact
    monkeypatch.setattr(gf, "_mod_exact", lambda x, p: reduced.append(x) or mod_exact(x, p))
    for block in (1, 2, 3):
        monkeypatch.setattr(gf, "FLOAT_EXACT", block * term + 1)
        for inner in (block - 1, block, block + 1, 2 * block + 1, 7):
            for a, b in (
                (_codes(F, rng, (3, inner)), _codes(F, rng, (inner, 4))),
                (np.full((2, inner), F.q - 1), np.full((inner, 3), F.q - 1)),
            ):
                reduced.clear()
                assert np.array_equal(F._slice_matmul(a, b), table_matmul(F, a, b))
                assert len(reduced) == -(-inner // block) + 1
                # the last reduction is of the sum of the block residues
                assert all(x.max(initial=0) < gf.FLOAT_EXACT for x in reduced[:-1])
