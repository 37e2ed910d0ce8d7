"""The per-degree routes that ``variety.vanishing_ideal`` replaced by one
elimination per degree: the interpolation of I(X) by ``interpolation_step``
in every degree, each C_X(d) eliminated again from the evaluations of its
standard monomials, and the indicators solved from a third RREF.  They are
the oracles of ``vanishing_ideal``, ``Analysis.code`` and
``standard_indicators``."""

import numpy as np

from rmcode import linalg
from rmcode.codes import LinearCode
from rmcode.errors import InternalInconsistency
from rmcode.groebner import GroebnerBasis, _next_layer, standard_monomials_upto
from rmcode.polyring import Poly, monomial_coprime, monomial_lcm
from rmcode.variety import basis_elements, interpolation_step


def vanishing_ideal_by_steps(X, order):
    """The reduced basis of I(X), one ``interpolation_step`` per degree
    over the candidates ascending, run past r0 + 1 until every S-pair of
    the leading monomials is in range; not certified."""
    f, s, m = X.field, X.s, X.m
    gens, leads = [], []
    r0, bound, d = None, 0, 0
    accepted = _next_layer(None, s, leads)
    while r0 is None or d < max(r0 + 1, bound):
        d += 1
        candidates = sorted(_next_layer(accepted, s, leads), key=order.key)
        std, nf = interpolation_step(X, candidates)
        old = len(leads)
        gens += basis_elements(f, candidates, std, nf, leads)
        for i in range(old, len(leads)):
            for v in leads[:i]:
                if not monomial_coprime(leads[i], v):
                    bound = max(bound, sum(monomial_lcm(leads[i], v)))
        accepted = [candidates[c] for c in std]
        if r0 is None and len(accepted) == m:
            r0 = d
    return GroebnerBasis(order, gens)


def code_of_degree(X, gb, d):
    """C_X(d): the row space of the degree-d standard-monomial evaluations."""
    if d < 0:
        return LinearCode(X.field, X.m, np.zeros((0, X.m), dtype=np.int64))
    monos = standard_monomials_upto(gb, X.s, d)[d]
    C = LinearCode.from_rows(X.field, X.eval_monomials(monos), length=X.m)
    if C.dimension != len(monos):
        raise InternalInconsistency(
            f"dim C_X({d}) = {C.dimension} != |footprint_{d}| = {len(monos)}"
        )
    return C


def solve_indicators(field, M, new):
    """The solutions c of M c = e_i, one row for each i in ``new``, from one
    RREF of [M | E_new]; M has full column rank and each e_i lies in its
    column space."""
    width = M.shape[1]
    E = np.zeros((M.shape[0], len(new)), dtype=np.int64)
    E[new, np.arange(len(new))] = 1
    R, pivots = linalg.rref(field, np.concatenate([M, E], axis=1))
    if pivots != tuple(range(width)):
        raise InternalInconsistency(
            "an indicator system is inconsistent or its solution not unique"
        )
    return R[:, width:].T


def indicators_by_solving(X, gb, r0):
    """(fs, values, degrees, essential): at each degree d <= r0 the points
    whose unit vector is first a row of the RREF basis of C_X(d), from
    ``code_of_degree``, are separated by solving over the degree-d
    standard monomials; each f_i is monic."""
    f, m = X.field, X.m
    per_degree = standard_monomials_upto(gb, X.s, r0)
    fs, degrees = [None] * m, [None] * m
    for d in range(r0 + 1):
        C = code_of_degree(X, gb, d)
        units = np.flatnonzero(np.count_nonzero(C.basis, axis=1) == 1)
        new = [C.pivots[r] for r in units if degrees[C.pivots[r]] is None]
        if not new:
            continue
        monos = per_degree[d]
        for i, x in zip(new, solve_indicators(f, X.eval_monomials(monos).T, new)):
            fs[i] = Poly(f, X.s, {u: int(c) for u, c in zip(monos, x) if c})
            degrees[i] = d
    fs = [g.monic(gb.order) for g in fs]
    values = np.diagonal(X.eval_polys(fs)).tolist()
    support = set.intersection(*(set(g.terms) for g in fs))
    return fs, values, degrees, gb.order.sorted_desc(support)
