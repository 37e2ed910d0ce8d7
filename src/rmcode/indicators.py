"""Standard indicator functions, local v-numbers, r-th v-numbers, and
essential monomials."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency
from .polyring import format_monomial, row_text, term_texts


@dataclass
class IndicatorSet:
    """The m standard indicator functions of a point set.

    f_i is the unique (up to scalar) standard polynomial of minimal degree
    with f(P_j) = 0 for j != i and f(P_i) != 0, normalized to leading
    coefficient 1.  ``blocks`` holds them by degree as (d, std, points,
    rows): row k is the coefficient vector of f_(points[k]) over the
    standard monomials ``std`` of degree d, descending.  ``values[i]`` is
    the code of f_i(P_i); ``degrees[i]`` is the local v-number at P_i.
    """

    field: object
    blocks: list
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

    def as_dict(self):
        field = self.field
        coeffs = {}  # the text of each coefficient code that occurs
        entries = [None] * len(self.degrees)
        for d, std, points, rows in self.blocks:
            texts = term_texts(std)
            for i, row in zip(points, rows):
                entries[i] = {
                    "degree": d,
                    "polynomial": row_text(field, texts, row, coeffs),
                    "value_at_own_point": field.format_element(
                        self.values[i], signed=True
                    ),
                    "leading_coefficient": field.format_element(
                        int(row[row != 0][0]), signed=True
                    ),
                }
        return {
            "indicators": entries,
            "essential_monomials": [format_monomial(u) for u in self.essential],
            "v_number": self.v_number,
            "v_local": list(self.degrees),
            "v_sorted": list(self.v_sorted),
        }


def standard_indicators(A):
    """The IndicatorSet of the ``Analysis`` A.

    f_i has the smallest degree d at which e_i lies in C_X(d).  The
    elimination of degree d in ``vanishing_ideal`` gives, for each point
    first separated there, a standard polynomial of degree d that is
    nonzero at that point only; it is unique up to scalar, because the
    degree-d standard monomials evaluate independently.  Each is scaled to
    leading coefficient 1, its first entry, and the vanishing pattern of
    every degree is checked by one product with the evaluations.
    """
    X, r0 = A.X, A.hd.r0
    f = X.field
    m = X.m
    values = [None] * m
    degrees = [None] * m
    blocks = []
    for d, (std, points, rows) in enumerate(A.ideal.separators):
        if not points:
            continue
        vals = f.matmul(rows, X.eval_monomials(std))
        own = vals[np.arange(len(points)), points]
        pattern = np.zeros_like(vals)
        pattern[np.arange(len(points)), points] = own
        if np.any(vals != pattern) or not np.all(own):
            raise InternalInconsistency("indicator vanishing pattern violated")
        lcs = rows[np.arange(len(points)), np.argmax(rows != 0, axis=1)]
        inv = f.arr([f.inv(int(c)) for c in lcs])
        for i, v in zip(points, f.mul_arr(own, inv).tolist()):
            values[i], degrees[i] = v, d
        blocks.append((d, std, points, f.mul_arr(rows, inv[:, None])))
    if None in degrees:
        raise InternalInconsistency(
            "indicator systems must be solvable at degree r0"
        )

    essential = []
    if len(blocks) == 1:
        _, std, _, rows = blocks[0]
        essential = [std[j] for j in np.flatnonzero(np.all(rows != 0, axis=0))]
    return IndicatorSet(f, blocks, values, degrees, essential, r0)
