"""Full re-elimination references: the per-pivot RREF, which updates every
whole row at every pivot, and the Artinian reduction whose every degree
eliminates the rows of h*C_X(e-1) again from scratch.  They are the oracles
of ``linalg.rref`` and ``artinian.artinian_reduce``.  ``solve`` is one
solution of a linear system by one RREF of the augmented matrix."""

import numpy as np

from rmcode import linalg
from rmcode.errors import InternalInconsistency
from rmcode.groebner import _next_layer

from groebner_oracle import eval_polys, linear_poly


def solve(field, mat, rhs):
    """One solution of mat @ x = rhs, or None when inconsistent."""
    a = field.arr(mat)
    aug = np.concatenate([a, field.arr(rhs).reshape(-1, 1)], axis=1)
    R, pivots = linalg.rref(field, aug)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, cols]
    return x


def rref_per_pivot(field, mat):
    """Reduced row-echelon form, (R without zero rows, pivot columns), with
    each pivot row scaled and subtracted from every other row in full."""
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
            a[[r, i]] = a[[i, r]]
        inv = field.inv(int(a[r, c]))
        a[r] = field.mul_arr(a[r], inv)
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = a[others, c][:, None]
            a[others] = field.sub_arr(a[others], field.mul_arr(factors, a[r][None, :]))
        pivots.append(c)
        r += 1
    return a[: len(pivots)], tuple(pivots)


def interpolation_step_fixed_rows(X, candidates, fixed):
    """One interpolation degree by one RREF of the matrix whose columns are
    the independent ``fixed`` rows, then the candidates' evaluations: its
    pivots among the candidates are the standard monomials, and its rows
    and columns past the fixed ones are the normal forms."""
    ev = X.eval_monomials(candidates)
    rows = np.concatenate([fixed, ev])
    k = len(fixed)
    R, pivots = rref_per_pivot(X.field, rows.T)
    if pivots[:k] != tuple(range(k)):
        raise InternalInconsistency("the fixed rows of an interpolation step are dependent")
    return ev, [c - k for c in pivots[k:]], R[k:, k:]


def artinian_steps_fixed_rows(X, order, h):
    """The (candidates, std, nf, rows) of every degree of S/(I(X), h), h
    the coefficients of t1..ts over the field of X, each
    degree one step with h times the previous step's rows fixed first; the
    rows, those fixed rows followed by the evaluations of the standard
    monomials, are a basis of C_X(e)."""
    f, s = X.field, X.s
    hvals = eval_polys(X, [linear_poly(f, h)])[0]
    steps = []
    candidates, hrows = [(0,) * s], np.zeros((0, X.m), dtype=np.int64)
    while True:
        ev, std, nf = interpolation_step_fixed_rows(X, candidates, hrows)
        rows = np.concatenate([hrows, ev[std]])
        steps.append((candidates, std, nf, rows))
        if not std:
            return steps
        hrows = f.mul_arr(rows, hvals[None, :])
        layer = [candidates[c] for c in std]
        candidates = sorted(_next_layer(layer, s, ()), key=order.key)
