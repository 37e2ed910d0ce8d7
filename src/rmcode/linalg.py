"""Exact linear algebra over a finite field on numpy arrays of element codes."""

from __future__ import annotations

import numpy as np


def rref(field, mat):
    """Reduced row-echelon form.

    Returns (R, pivots) where R is the RREF (zero rows dropped) and pivots is
    the tuple of pivot column indices.  When column c gets its pivot, every
    row from the pivot row down is zero left of c, so a pivot step touches
    only columns c and beyond, each other row by one field operation
    row - factor * pivot row.
    """
    a = field.arr(mat).copy()
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), ()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = field.mul_arr(a[r, c:], field.inv(int(a[r, c])))
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others, c:] = field.sub_mul_arr(
                a[others, c:], a[others, c][:, None], a[r, c:][None, :]
            )
        pivots.append(c)
        r += 1
    return a[: len(pivots)], tuple(pivots)


def rank(field, mat):
    return len(rref(field, mat)[1])


def nullspace(field, mat):
    """RREF basis of {x : mat @ x = 0} (rows of the result are the basis)."""
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    return rref_nullspace(field, *rref(field, a))


def rref_nullspace(field, R, pivots):
    """RREF basis of {x : R @ x = 0} for R already in RREF with the given
    pivot columns: x is free off the pivots and x[pivots] = -R x[free]."""
    cols = R.shape[1]
    piv = set(pivots)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if not free:
        return basis
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = field.neg_arr(field.arr(R)[:, free]).T
    return rref(field, basis)[0]
