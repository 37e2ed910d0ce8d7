"""Powers of arrays of field codes by square-and-multiply on
``Field.mul_arr``, for the Frobenius and unit-group checks, the
multiplicative order of an element with the smallest primitive element,
polynomial products over F_p: the reduced product of two field
elements' digit tuples and every reducible monic polynomial of a degree;
and two table-driven routes of extension-field arithmetic: the product
with one table gather per inner index, which ``Field.matmul`` keeps for
small inner dimensions only, and a table builder that finds negatives
and inverses by scanning the tables."""

import numpy as np


def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def pow_arr(field, a, e):
    """a ** e elementwise over ``field``, for an integer e >= 0."""
    out = np.ones_like(np.asarray(a))
    base = np.asarray(a)
    while e:
        if e & 1:
            out = field.mul_arr(out, base)
        base = field.mul_arr(base, base)
        e >>= 1
    return out


def order_of(field, code):
    """The multiplicative order of a nonzero code: q-1 with each prime l
    stripped while code^(n/l) = 1."""
    n = field.q - 1
    for ell in prime_factors(n):
        while n % ell == 0 and field.pow_(code, n // ell) == 1:
            n //= ell
    return n


def primitive_element(field):
    """The smallest code that generates the unit group."""
    return next(x for x in range(1, field.q) if order_of(field, x) == field.q - 1)


def poly_mul(f, g, p):
    """The product of two coefficient tuples over F_p, ascending powers."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def poly_mulmod(f, g, mod, p):
    """f * g reduced modulo the monic ``mod`` over F_p, len(mod) - 1 entries."""
    k = len(mod) - 1
    out = list(poly_mul(f, g, p)) + [0] * k
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return out[:k]


def monics(p, k):
    """Every monic degree-k polynomial over F_p, in code order: the lower
    coefficients are the base-p digits of the code."""
    return [tuple(code // p**i % p for i in range(k)) + (1,) for code in range(p**k)]


def reducible_monics(p, k):
    """Every reducible monic degree-k polynomial over F_p: the products of
    two monic polynomials of degrees a and k - a, 1 <= a <= k // 2."""
    return {
        poly_mul(f, g, p)
        for a in range(1, k // 2 + 1)
        for f in monics(p, a)
        for g in monics(p, k - a)
    }


def table_matmul(field, a, b):
    """a @ b over an extension field by one table product per inner
    index: two q x q table gathers each."""
    a, b = field.arr(a), field.arr(b)
    out = a[:, :0] @ b[:0]
    for i in range(a.shape[1]):
        prod = field._mul_t[a[:, i, None], b[i]]
        out = field._add_t[out, prod] if i else prod
    return out


def horner_tables(field):
    """The add, mul, neg and inv tables of an extension field from the q x k
    digit matrix: digitwise sums mod p, Horner in a over the digits of x,
    and the negatives and inverses by an argmax scan of the tables."""
    p, k, q = field.p, field.k, field.q
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p
    add = sum(
        (digits[:, None, i] + digits[None, :, i]) % p * w for i, w in enumerate(weights)
    )
    top = digits[:, -1:]
    shifted = np.concatenate([np.zeros_like(top), digits[:, :-1]], axis=1)
    times_a = (shifted - top * np.array(field.modulus[:k])) % p @ weights
    scaled = np.arange(p)[:, None, None] * digits % p @ weights
    mul = scaled[digits[:, -1]]
    for i in range(k - 2, -1, -1):
        mul = add[times_a[mul], scaled[digits[:, i]]]
    return add, mul, np.argmax(add == 0, axis=1), np.argmax(mul == 1, axis=1)
