"""Powers of arrays of field codes by square-and-multiply on
``Field.mul_arr``, for the Frobenius and unit-group checks, and the
multiplicative order of an element with the smallest primitive element."""

import numpy as np

from rmcode.gf import prime_factors


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
