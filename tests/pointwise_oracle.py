"""Point-by-point references: the value of a polynomial at one point, term
by term, and a point set whose representatives are rescaled."""

import numpy as np

from rmcode.errors import DimensionMismatch, ZeroPoint
from rmcode.variety import PointSet


def evaluate(g, point):
    """g(point) for a coordinate list of codes, one term at a time."""
    if len(point) != g.nvars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, ring has {g.nvars}"
        )
    f = g.field
    total = 0
    for u, c in g.terms.items():
        val = c
        for x, e in zip(point, u):
            if e:
                val = f.mul(val, f.pow_(int(x), e))
        total = f.add(total, val)
    return total


def rescaled(X, lambdas):
    """The same projective set with representative i scaled by lambdas[i]."""
    f = X.field
    lam = f.arr(lambdas)
    if np.any(lam == 0):
        raise ZeroPoint("scaling factors must be nonzero")
    return PointSet(f, f.mul_arr(X.coords, lam[:, None]), canonicalize=False)
