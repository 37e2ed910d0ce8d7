"""The self-duality routes that build and compare RREF bases: C_X(d)
against its dual, the Gorenstein classification from its own degree-2d
parity, and local duality against the dual of ev(Gamma2).  They are the
oracles of ``duality.self_dual_report``, ``gorenstein_selfdual_classify``
and ``local_duality_verify``."""

import numpy as np

from rmcode.codes import LinearCode, dual_code
from rmcode.duality import _ones_parity
from rmcode.groebner import standard_monomials_upto


def self_dual(A, d):
    """C_X(d) equals its dual, as RREF bases."""
    C = A.code(d)
    return 2 * C.dimension == C.length and C == A.dual(d)


def self_dual_degrees(A):
    return [d for d in range(A.hd.r0 + 1) if self_dual(A, d)]


def gorenstein_classification(A):
    """Monomially self-dual iff r0 = 2d+1; strictly self-dual iff, there,
    the all-ones vector is a parity check of the evaluations of the degree-2d
    standard monomials and H(2d) = m-1; with the point-matrix criterion at
    d = 1 where it applies."""
    X, hd = A.X, A.hd
    f, m, r0 = X.field, X.m, hd.r0
    entries = []
    for d in range(1, r0 + 1):
        mono_sd = r0 == 2 * d + 1
        strict_sd = False
        if mono_sd:
            monos2d = standard_monomials_upto(A.gb, X.s, 2 * d)[2 * d]
            strict_sd = (
                _ones_parity(f, X.eval_monomials(monos2d)) and hd.value(2 * d) == m - 1
            )
        entry = {"d": d, "monomially_self_dual": mono_sd, "self_dual": strict_sd}
        if d == 1 and np.all(X.coords[:, -1] == 1) and hd.H[1] == X.s:
            P = X.coords
            entry["point_matrix_self_dual"] = m == 2 * X.s and not np.any(
                f.matmul(P.T, P)
            )
        entries.append(entry)
    return entries


def local_duality(A, gamma1, gamma2, gamma):
    """gamma . ev(Gamma1) = ev(Gamma2)^perp, as RREF bases."""
    X = A.X
    f = X.field
    lhs = LinearCode.from_rows(
        f, f.mul_arr(X.eval_monomials(gamma1), f.arr(gamma)[None, :]), length=X.m
    )
    return lhs == dual_code(LinearCode.from_rows(f, X.eval_monomials(gamma2), length=X.m))
