"""Powers of arrays of field codes by square-and-multiply on
``Field.mul_arr``, for the Frobenius and unit-group checks."""

import numpy as np


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
