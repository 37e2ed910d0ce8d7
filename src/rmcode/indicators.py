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


def _solve_indicator(field, A_aug_rref, pivots, width, i):
    """Solution of A c = e_i from a precomputed RREF of [A | I], or None."""
    R = A_aug_rref
    rhs_col = width + i
    # consistency: no pivot may sit in the identity block,
    # and rows that are zero on the A-block must be zero at e_i's column
    x = np.zeros(width, dtype=np.int64)
    for r, pc in enumerate(pivots):
        if pc >= width:
            # this row reads 0 = (combination of unit vectors); the system
            # A c = e_i is inconsistent iff that combination hits column i
            if R[r, rhs_col] != 0:
                return None
        else:
            x[pc] = R[r, rhs_col]
    return x


def standard_indicators(X, gb, r0):
    """Compute the IndicatorSet of X from a certified basis of I(X) and its
    regularity index r0, which bounds every degree.

    For each point the smallest degree d is found where the linear system
    over the degree-d standard monomials evaluates to the i-th unit vector;
    the evaluation matrix has full column rank, so the solution is unique.
    """
    f = X.field
    m = X.m
    per_degree = standard_monomials_upto(gb, X.s, r0)

    fs = [None] * m
    degrees = [None] * m
    remaining = set(range(m))
    for d in range(r0 + 1):
        if not remaining:
            break
        monos = per_degree[d]
        if not monos:
            continue
        A = X.eval_monomials(monos)            # |Delta_d| x m
        width = len(monos)
        aug = np.concatenate([A.T, np.eye(m, dtype=np.int64)], axis=1)
        R, pivots = linalg.rref(f, aug)
        for i in sorted(remaining):
            x = _solve_indicator(f, R, pivots, width, i)
            if x is None:
                continue
            terms = {u: int(c) for u, c in zip(monos, x) if c}
            fs[i] = Poly(f, X.s, terms)
            degrees[i] = d
            remaining.discard(i)
    if remaining:
        raise InternalInconsistency(
            "indicator systems must be solvable at degree r0"
        )

    order = gb.order
    values = []
    for i in range(m):
        fs[i] = fs[i].monic(order)
        vec = X.eval_poly(fs[i])
        if any(vec[j] != 0 for j in range(m) if j != i) or vec[i] == 0:
            raise InternalInconsistency("indicator vanishing pattern violated")
        values.append(int(vec[i]))

    support = set(fs[0].terms)
    for g in fs[1:]:
        support &= set(g.terms)
    essential = order.sorted_desc(support)
    return IndicatorSet(fs, values, degrees, essential, r0)


def colon_witness(A, i):
    """f_i of the ``Analysis`` A, re-verified: correct vanishing pattern,
    and no standard polynomial of smaller degree separates P_i (the system
    at degree v_i - 1 is infeasible)."""
    X, isx = A.X, A.isx
    f = X.field
    fi = isx.fs[i]
    vi = isx.degrees[i]
    vec = X.eval_poly(fi)
    assert vec[i] != 0 and all(vec[j] == 0 for j in range(X.m) if j != i)
    if vi > 0:
        monos = standard_monomials_upto(A.gb, X.s, vi - 1)[vi - 1]
        if monos:
            A = X.eval_monomials(monos)
            e_i = np.zeros(X.m, dtype=np.int64)
            e_i[i] = 1
            if linalg.solve(f, A.T, e_i) is not None:
                raise InternalInconsistency(
                    f"a separator of degree {vi - 1} < v_i exists"
                )
    return fi
