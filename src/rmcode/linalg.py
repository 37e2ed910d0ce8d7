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
    pivots = _reduce(field, a, a.shape[1])
    return a[: len(pivots)], pivots


def rref_transform(field, mat):
    """``rref(field, [mat | I])`` for an (n, w) matrix ``mat``: the RREF of
    ``mat`` beside the transform that takes the rows of ``mat`` to it.  No
    row of [mat | I] is zero, so all n rows come back.

    Transform column w + j starts as the unit vector of row j.  A row
    changes only by multiples of pivot rows, so after each pivot its
    transform part is supported on the original indices of the pivot rows
    so far and its own: a pivot step updates the transform columns only up
    to the largest original index of a pivot row, not the whole identity.
    """
    a = field.arr(mat)
    n, w = a.shape
    a = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    return a, _reduce(field, a, w)


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
    pivot columns: x is free off the pivots and x[pivots] = -R x[free].

    The basis row of a free column f is e_f - sum_i R[i, f] * e_(p_i).  It
    is not in echelon form: its first nonzero entry is at the first pivot
    column p_i < f with R[i, f] != 0, where R's row i reaches right to f,
    and rows of different free columns can start at the same pivot.  So
    the rows span the nullspace but are no RREF until one is taken."""
    cols = R.shape[1]
    piv = set(pivots)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if not free:
        return basis
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = field.neg_arr(field.arr(R)[:, free]).T
    return rref(field, basis)[0]


def _reduce(field, a, w):
    """Reduce ``a`` in place to RREF; returns the pivot columns.  Columns
    w and beyond are a transform block that started as the identity, so
    a pivot step stops at column w + (the largest original index of a
    pivot row so far); with w the column count nothing is cut.

    Over F_p the row updates skip the reduction mod p: an entry moves by
    less than (p-1)**2 per update, so it stays exact in int64 for
    ``slack`` updates, after which the whole matrix is reduced.  A column
    is reduced before it is searched for a pivot or read for factors, and
    the pivot row before it is scaled."""
    rows, cols = a.shape
    p = field.p if field.k == 1 else None
    slack = 2**62 // (p - 1) ** 2 if p else None
    updates = 0
    orig = np.arange(rows)
    top = -1  # the largest original index of a pivot row so far
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if p:
            a[:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            end = w + max(top, orig[r], orig[i]) + 1
            a[[r, i], c:end] = a[[i, r], c:end]
            orig[[r, i]] = orig[[i, r]]
        top = max(top, int(orig[r]))
        end = w + top + 1
        if p:
            a[r, c:end] %= p
        a[r, c:end] = field.mul_arr(a[r, c:end], field.inv(int(a[r, c])))
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if p and others.size:
            if updates == slack:
                a %= p
                updates = 0
            a[others, c:end] -= a[others, c][:, None] * a[r, c:end][None, :]
            updates += 1
        elif others.size:
            a[others, c:end] = field.sub_mul_arr(
                a[others, c:end], a[others, c][:, None], a[r, c:end][None, :]
            )
        pivots.append(c)
        r += 1
    if p:
        a %= p
    return tuple(pivots)
