"""Standard indicator functions, local v-numbers, r-th v-numbers, and
essential monomials."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InternalInconsistency
from .groebner import standard_monomials_upto
from .polyring import Poly, format_monomial


@dataclass
class IndicatorSet:
    """The m standard indicator functions of a point set.

    ``fs[i]`` is the unique (up to scalar) standard polynomial of minimal
    degree with f(P_j) = 0 for j != i and f(P_i) != 0, normalized to leading
    coefficient 1.  ``values[i]`` is the code of f_i(P_i); ``degrees[i]`` is
    the local v-number at P_i.
    """

    fs: list
    values: list
    degrees: list
    essential: list
    r0: int

    @property
    def v_number(self):
        return min(self.degrees)

    @property
    def v_sorted(self):
        """The r-th v-numbers: entry r - 1 predicts the regularity index of
        the r-th generalized Hamming weight function."""
        return tuple(sorted(self.degrees))

    def as_dict(self, order):
        field = self.fs[0].field
        return {
            "indicators": [
                {
                    "degree": d,
                    "polynomial": f.to_str(order),
                    "value_at_own_point": field.format_element(v, signed=True),
                    "leading_coefficient": field.format_element(
                        f.leading_coeff(order), signed=True
                    ),
                }
                for f, v, d in zip(self.fs, self.values, self.degrees)
            ],
            "essential_monomials": [format_monomial(u) for u in self.essential],
            "v_number": self.v_number,
            "v_local": list(self.degrees),
            "v_sorted": list(self.v_sorted),
        }


def _solve_indicators(field, M, new):
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


def standard_indicators(A):
    """The IndicatorSet of the ``Analysis`` A.

    f_i has the smallest degree d at which e_i lies in C_X(d).  That holds
    exactly when a row of the RREF basis of C_X(d) equals e_i, since a
    unit vector off the pivot columns reduces to 0.  So the new indicators
    of each degree are read off ``A.code(d)``, and only they are solved for
    over the degree-d standard monomials, whose evaluation matrix has full
    column rank, so the solution is unique.
    """
    X, gb, r0 = A.X, A.gb, A.hd.r0
    f = X.field
    m = X.m
    per_degree = standard_monomials_upto(gb, X.s, r0)

    fs = [None] * m
    degrees = [None] * m
    for d in range(r0 + 1):
        C = A.code(d)
        units = np.flatnonzero(np.count_nonzero(C.basis, axis=1) == 1)
        new = [C.pivots[r] for r in units if degrees[C.pivots[r]] is None]
        if not new:
            continue
        monos = per_degree[d]
        sols = _solve_indicators(f, X.eval_monomials(monos).T, new)
        for i, x in zip(new, sols):
            fs[i] = Poly(f, X.s, {u: int(c) for u, c in zip(monos, x) if c})
            degrees[i] = d
    if None in degrees:
        raise InternalInconsistency(
            "indicator systems must be solvable at degree r0"
        )

    order = gb.order
    fs = [g.monic(order) for g in fs]
    vals = X.eval_polys(fs)
    values = np.diagonal(vals)
    if np.any(vals != np.diag(values)) or not np.all(values):
        raise InternalInconsistency("indicator vanishing pattern violated")

    support = set(fs[0].terms)
    for g in fs[1:]:
        support &= set(g.terms)
    essential = order.sorted_desc(support)
    return IndicatorSet(fs, values.tolist(), degrees, essential, r0)
