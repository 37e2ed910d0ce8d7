"""Evaluation codes, duals, weight distributions, minimum distance,
generalized Hamming weights, the footprint matrix, and the weight-matrix
resolver.

Enumeration kernels run batched on numpy arrays of field codes so that exact
brute force stays fast enough for the documented budgets.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import linalg
from .errors import BudgetExceeded, InternalInconsistency, InvalidParams
from .groebner import standard_monomials_upto
from .polyring import monomial_divides

DEFAULT_CODEWORD_BUDGET = 10**7
DEFAULT_SUBSPACE_BUDGET = 10**6
_CHUNK = 1 << 17


def enumeration_budget(default):
    env = os.environ.get("RMCODE_BUDGET", "").strip()
    if not env:
        return default
    if not env.isdecimal():
        raise InvalidParams(f"RMCODE_BUDGET={env!r} is not a non-negative integer")
    return int(env)


@dataclass
class LinearCode:
    """An [m, k] linear code, canonically represented by an RREF basis."""

    field: object
    length: int
    basis: np.ndarray  # k x m, RREF

    @classmethod
    def from_rows(cls, field, rows, length=None):
        rows = field.arr(rows)
        if rows.size == 0:
            if length is None:
                raise ValueError("zero code needs an explicit length")
            return cls(field, length, np.zeros((0, length), dtype=np.int64))
        R, _ = linalg.rref(field, rows.reshape(-1, rows.shape[-1]))
        return cls(field, rows.shape[-1], R)

    @property
    def dimension(self):
        return self.basis.shape[0]

    @cached_property
    def pivots(self):
        """The pivot column of each basis row: its first nonzero entry."""
        return tuple(int(c) for c in np.argmax(self.basis != 0, axis=1))

    @cached_property
    def dual(self):
        """C^perp, built once per code; both bases are frozen with it."""
        D = dual_code(self)
        self.basis.flags.writeable = False
        D.basis.flags.writeable = False
        return D

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.length == other.length
            and np.array_equal(self.basis, other.basis)
        )

    def scaled(self, beta):
        """The monomially equivalent code beta . C (entrywise column scaling).

        Scaling keeps the zero pattern of the RREF basis, so dividing each
        row by its scaled pivot entry gives the RREF of beta . C."""
        f = self.field
        beta = f.arr(beta)
        if np.any(beta == 0):
            raise ValueError("scaling vector must have nonzero entries")
        rescale = f.arr([f.inv(int(beta[c])) for c in self.pivots])
        B = f.mul_arr(f.mul_arr(self.basis, beta[None, :]), rescale[:, None])
        return LinearCode(f, self.length, B)


def code_of_degree(X, gb, d):
    """C_X(d): the row space of the degree-d standard-monomial evaluations."""
    if d < 0:
        return LinearCode(X.field, X.m, np.zeros((0, X.m), dtype=np.int64))
    monos = standard_monomials_upto(gb, X.s, d)[d]
    rows = X.eval_monomials(monos)
    C = LinearCode.from_rows(X.field, rows, length=X.m)
    if C.dimension != len(monos):
        # the evaluation map is injective on the span of standard monomials
        raise InternalInconsistency(
            f"dim C_X({d}) = {C.dimension} != |footprint_{d}| = {len(monos)}"
        )
    return C


def dual_code(C):
    """C^perp as an RREF nullspace basis, read off the RREF basis of C."""
    f = C.field
    N = linalg.rref_nullspace(f, C.basis, C.pivots)
    return LinearCode(f, C.length, N)


def gaussian_binomial(k, r, q):
    """Number of r-dimensional subspaces of F_q^k."""
    if r < 0 or r > k:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def projective_count(k, q):
    return (q**k - 1) // (q - 1)


def _digits(n_arr, base, ndigits):
    out = np.empty((len(n_arr), ndigits), dtype=np.int64)
    c = n_arr.copy()
    for i in range(ndigits):
        out[:, i] = c % base
        c //= base
    return out


def _span_chunks(C, pivots):
    """The r-dimensional subspaces of C whose RREF generator matrix over
    the basis G of C has its pivots at the rows ``pivots``, in chunks of at
    most _CHUNK generators.  Row i of a generator is G[pivots[i]] +
    digits @ G[free], free the non-pivot rows after pivots[i], and the
    digits of all rows are those of one counter.  A chunk is the (n, r, m)
    boolean array of the rows' nonzero coordinates, all that the weights
    need: a + b != 0 exactly when b != -a."""
    f, G, k = C.field, C.basis, C.dimension
    frees = [[c for c in range(p + 1, k) if c not in pivots] for p in pivots]
    ends = np.cumsum([0] + [len(free) for free in frees]).tolist()
    count = f.q ** ends[-1]
    for start in range(0, count, _CHUNK):
        digs = _digits(np.arange(start, min(start + _CHUNK, count)), f.q, ends[-1])
        nonzero = np.empty((len(digs), len(pivots), C.length), dtype=bool)
        for i, (p, free) in enumerate(zip(pivots, frees)):
            span = f.matmul(digs[:, ends[i] : ends[i + 1]], G[free])
            nonzero[:, i] = span != f.neg_arr(G[p])
            del span  # not held across the yield
        yield nonzero


def weight_distribution(C):
    """[A_0, ..., A_m]: the number of codewords of C of each Hamming weight,
    by enumerating one representative of each scalar class, the r = 1
    sweep of ``ghw``.  The caller budgets the projective_count(k, q)
    classes."""
    m = C.length
    classes = np.zeros(m + 1, dtype=np.int64)
    for lead in range(C.dimension):
        for nonzero in _span_chunks(C, (lead,)):
            weights = np.count_nonzero(nonzero[:, 0], axis=1)
            classes += np.bincount(weights, minlength=m + 1)
    return [1] + [(C.field.q - 1) * int(c) for c in classes[1:]]


def macwilliams(B, k, q):
    """The weight distribution of an [m, k] code C over F_q from the weight
    distribution B = [B_0, ..., B_m] of C^perp, by the MacWilliams identity
    A_j = q^-(m-k) sum_i B_i K_j(i) with the Krawtchouk polynomials
    K_j(i) = sum_h (-1)^h (q-1)^(j-h) C(i, h) C(m-i, j-h)."""
    m = len(B) - 1
    size = q ** (m - k)
    support = [(i, b) for i, b in enumerate(B) if b]
    A = []
    for j in range(m + 1):
        total = sum(
            b * sum(
                (-1) ** h * (q - 1) ** (j - h) * comb(i, h) * comb(m - i, j - h)
                for h in range(min(i, j) + 1)
            )
            for i, b in support
        )
        if total % size or total < 0:
            raise InternalInconsistency(
                f"MacWilliams: A_{j} = {total}/{size} is not a non-negative integer"
            )
        A.append(total // size)
    if A[0] != 1 or sum(A) != q**k:
        raise InternalInconsistency(
            f"MacWilliams: A_0 = {A[0]} and sum A_j = {sum(A)} for a code of "
            f"size {q}^{k}"
        )
    return A


def min_distance(C, limit=None):
    """Exact minimum Hamming weight.  The budget counts the projective
    codewords of C; the weights are enumerated in C, or in C^perp when that
    is the smaller code and carried over by the MacWilliams identity."""
    limit = limit if limit is not None else enumeration_budget(DEFAULT_CODEWORD_BUDGET)
    f = C.field
    k, m = C.dimension, C.length
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    total = projective_count(k, f.q)
    if total > limit:
        raise BudgetExceeded(
            f"{total} projective codewords exceed budget {limit}",
            required=total,
            budget=limit,
        )
    if m - k >= k:
        A = weight_distribution(C)
    else:
        A = macwilliams(weight_distribution(C.dual), k, f.q)
    return next(w for w in range(1, m + 1) if A[w])


def ghw(C, r, limit=None):
    """Exact r-th generalized Hamming weight by RREF subspace enumeration."""
    limit = limit if limit is not None else enumeration_budget(DEFAULT_SUBSPACE_BUDGET)
    f = C.field
    k, m = C.dimension, C.length
    if not 1 <= r <= k:
        raise ValueError(f"r must be in 1..{k}")
    total = gaussian_binomial(k, r, f.q)
    if total > limit:
        raise BudgetExceeded(
            f"{total} subspaces exceed budget {limit}", required=total, budget=limit
        )
    best = m
    for pivots in itertools.combinations(range(k), r):
        for nonzero in _span_chunks(C, pivots):
            supports = np.count_nonzero(nonzero.any(axis=1), axis=1)
            best = min(best, int(supports.min()))
            if best == r:
                return r
    return best


def dual_sweep_size(C):
    """Subspaces of C^perp that ``ghw_hierarchy_via_dual`` enumerates."""
    n = C.length - C.dimension
    return sum(gaussian_binomial(n, s, C.field.q) for s in range(1, n + 1))


def ghw_hierarchy_via_dual(C):
    """[d_1(C), ..., d_k(C)] from the weight hierarchy of C^perp by Wei
    duality: {d_r(C)} and {m + 1 - d_s(C^perp)} partition {1..m}."""
    k, m = C.dimension, C.length
    D = C.dual
    # the caller budgets the whole sweep, so no single weight may trip a limit
    work = dual_sweep_size(C)
    taken = {m + 1 - ghw(D, s, limit=work) for s in range(1, D.dimension + 1)}
    row = [w for w in range(1, m + 1) if w not in taken]
    if len(row) != k:
        raise InternalInconsistency(
            f"Wei duality: {len(row)} weights left for a code of dimension {k}"
        )
    return row


# -- footprint -------------------------------------------------------------------


def footprint_matrix(X, gb, r0, budget=None):
    """Every fp(d, r) for 1 <= d <= r0, 1 <= r <= H(d), as rows[d-1][r-1],
    with None where the comb(H(d), r) r-subsets exceed the budget.

    fp(d, r) = deg(S/I) - max over r-subsets F of the degree-d standard
    monomials of: deg(S/(in(I)+(F))) when (in(I) : F) != in(I), else 0.
    Every term is read off the staircase of in(I): each degree-d standard
    monomial becomes the bitmask of the degree-D standard monomials that it
    divides (and, for an unsaturated in(I), of those of degree <= D), and an
    r-subset costs r ORs and a popcount, or twice that.
    """
    budget = budget if budget is not None else enumeration_budget(DEFAULT_SUBSPACE_BUDGET)
    s, m = X.s, X.m
    leads = gb.leads
    # S/L with dim S/L <= 1 has a constant Hilbert function from degree
    # sum_i a_i - s + 1 on, a_i the top exponent of x_i in L's generators;
    # every L = in(I)+(F) with F in degrees <= r0 has a_i <= max(a_i(in(I)), r0)
    D = sum(max([r0] + [g[i] for g in leads]) for i in range(s))
    monos = standard_monomials_upto(gb, s, D + 1)
    if not len(monos[D]) == len(monos[D + 1]) == m:
        raise InternalInconsistency(
            f"standard monomials of degrees {D}, {D + 1}: "
            f"{len(monos[D])}, {len(monos[D + 1])}, expected deg(S/in(I)) = {m}"
        )
    # With L = in(I) and B the standard monomials of degree <= D, the term
    # of an r-subset F is:
    # - m - |covered_D| when a degree-D monomial is left uncovered: L+F has
    #   dimension 1, so F lies in a minimal prime of L, the colon is not
    #   trivial and the stable count is the degree;
    # - 0 when all are covered and L is saturated: F then avoids every
    #   associated prime, all of them minimal, so (L : F) = L;
    # - |B| - |covered| when all are covered and L is not saturated: the
    #   maximal ideal is associated, so some standard w has F*w in L and the
    #   colon is never trivial.  Each standard monomial u of L+F has
    #   u_i < max(a_i, r0), so deg u <= D - s, and the count is the length
    #   of S/(L+F).
    # L is unsaturated iff some standard w has every t_i*w in L; capping w's
    # exponents at the a_i keeps both properties, so such a w exists in B if
    # at all, and one pass over B decides it.  Only then are masks over all
    # of B built, so a saturated L costs r ORs and one popcount per subset.
    below = set(itertools.chain(*monos))
    B = list(itertools.chain(*monos[: D + 1]))
    saturated = all(
        any(u[:i] + (u[i] + 1,) + u[i + 1 :] in below for i in range(s)) for u in B
    )

    def masks(fs, over):
        return [sum(1 << j for j, u in enumerate(over) if monomial_divides(f, u)) for f in fs]

    rows = []
    for d in range(1, r0 + 1):
        fs = monos[d]
        top = masks(fs, monos[D])
        full = None if saturated else masks(fs, B)
        row = []
        for r in range(1, len(fs) + 1):
            if comb(len(fs), r) > budget:
                row.append(None)
                continue
            best = 0
            for idx in itertools.combinations(range(len(fs)), r):
                covered = 0
                for i in idx:
                    covered |= top[i]
                contrib = m - covered.bit_count()
                if not contrib and not saturated:
                    covered = 0
                    for i in idx:
                        covered |= full[i]
                    contrib = len(B) - covered.bit_count()
                best = max(best, contrib)
            row.append(m - best)
        rows.append(row)
    return rows


# -- weight matrix ---------------------------------------------------------------


@dataclass
class Cell:
    """One weight-matrix entry: exact value, interval, or infinity."""

    kind: str          # "exact" | "interval" | "infinity"
    lo: int = 0
    hi: int = 0
    method: str = ""   # how an exact value was obtained

    @classmethod
    def exact(cls, n, method):
        return cls("exact", n, n, method)

    @classmethod
    def infinity(cls):
        return cls("infinity")

    @property
    def value(self):
        if self.kind != "exact":
            raise ValueError("cell is not exact")
        return self.lo

    def as_dict(self):
        if self.kind == "infinity":
            return {"kind": "infinity"}
        if self.kind == "exact":
            return {"kind": "exact", "value": self.lo, "method": self.method}
        return {"kind": "interval", "lo": self.lo, "hi": self.hi}


@dataclass
class WeightMatrix:
    r0: int
    m: int
    H: tuple
    cells: list                 # cells[d-1][r-1]
    fp: list                    # fp[d-1][r-1] or None where r > H(d)
    budget: int

    def cell(self, d, r):
        return self.cells[d - 1][r - 1]

    def all_exact(self):
        return all(
            c.kind != "interval" for row in self.cells for c in row
        )

    def as_dict(self):
        return {
            "r0": self.r0,
            "length": self.m,
            "budget": self.budget,
            "cells": [[c.as_dict() for c in row] for row in self.cells],
            "footprint": self.fp,
        }

    def render(self):
        def fmt(c):
            if c.kind == "infinity":
                return "∞"
            if c.kind == "exact":
                return str(c.lo)
            return f"[{c.lo},{c.hi}]"

        widths = [
            max(len(fmt(self.cells[d][r])) for d in range(self.r0))
            for r in range(self.m)
        ]
        lines = []
        for d in range(self.r0):
            lines.append(
                "  ".join(fmt(self.cells[d][r]).rjust(widths[r]) for r in range(self.m))
            )
        return "\n".join(lines)


def weight_matrix(A, budget=None, fp=None):
    """Resolve every delta_X(d, r) cell for 1 <= d <= r0, 1 <= r <= m.

    Resolution order per cell: brute force within budget; infinity when
    r > H(d); the regularity-index pin delta(d, r) = r for d >= v_r; then
    interval tightening from the footprint lower bound, the generalized
    Singleton bound, and strict row/column monotonicity.  Unresolved cells
    stay honest intervals.

    The budget counts r-subspaces of C_X(d).  The in-budget cells of a row
    are enumerated in C_X(d), or, when its dual sweep is no larger, read off
    the whole hierarchy of C_X(d)^perp by Wei duality.  ``fp`` takes the
    rows of ``footprint_matrix`` under the same budget, computed here when
    not given; that call also traps deg(S/in(I)) != |X|.  ``A`` is the
    ``Analysis`` of the point set.
    """
    budget = budget if budget is not None else enumeration_budget(DEFAULT_SUBSPACE_BUDGET)
    X, hd = A.X, A.hd
    f = X.field
    m = X.m
    r0 = hd.r0
    v_sorted = A.isx.v_sorted  # v_sorted[r-1] = R_r
    if fp is None:
        fp = footprint_matrix(X, A.gb, r0, budget=budget)
    fpm = [row + [None] * (m - len(row)) for row in fp]

    # one interval and one method per cell (d, r); "" marks an open cell
    lo, hi, how = {}, {}, {}
    for d in range(1, r0 + 1):
        k = hd.value(d)
        C = A.code(d)
        swept = [r for r in range(1, k + 1) if gaussian_binomial(k, r, f.q) <= budget]
        if swept and dual_sweep_size(C) <= sum(
            gaussian_binomial(k, r, f.q) for r in swept
        ):
            hierarchy = ghw_hierarchy_via_dual(C)
            weights = {r: hierarchy[r - 1] for r in swept}
        else:
            weights = {r: ghw(C, r, limit=budget) for r in swept}
        for r in range(1, m + 1):
            fp_val = fpm[d - 1][r - 1]
            if r > k:
                how[d, r] = "infinity"
            elif r in weights:
                val = weights[r]
                if fp_val is not None and val < fp_val:
                    raise InternalInconsistency(
                        f"footprint bound violated at (d={d}, r={r})"
                    )
                lo[d, r] = hi[d, r] = val
                how[d, r] = "brute"
            elif d >= v_sorted[r - 1]:
                lo[d, r] = hi[d, r] = r
                how[d, r] = "regularity-pin"
            else:
                lo[d, r] = max(r, fp_val if fp_val is not None else r)
                hi[d, r] = m - k + r  # generalized Singleton
                how[d, r] = ""

    def interval(d, r):
        """(lo, hi) of cell (d, r); None off the matrix or at infinity."""
        if how.get((d, r), "infinity") == "infinity":
            return None
        return lo[d, r], hi[d, r]

    # tighten the open cells by the row and column rules until nothing moves
    open_cells = [key for key, method in how.items() if not method]
    moved = True
    while moved:
        moved = False
        for d, r in open_cells:
            L, U = lo[d, r], hi[d, r]
            # strict row increase: delta(d, r-1) < delta(d, r) < delta(d, r+1)
            b = interval(d, r - 1)
            if b:
                L = max(L, b[0] + 1)
            b = interval(d, r + 1)
            if b:
                U = min(U, b[1] - 1)
            # columns strictly decrease until they stabilize at r (the
            # stabilization degree is the pinned r-th v-number)
            b = interval(d + 1, r)
            if b:
                L = max(L, b[0] + 1 if d + 1 <= v_sorted[r - 1] else b[0])
            b = interval(d - 1, r)
            if b and d <= v_sorted[r - 1]:
                U = min(U, b[1] - 1)
            if L > U:
                raise InternalInconsistency(f"bound contradiction at (d={d}, r={r})")
            if (L, U) != (lo[d, r], hi[d, r]):
                lo[d, r], hi[d, r] = L, U
                moved = True

    def cell(d, r):
        method = how[d, r]
        if method == "infinity":
            return Cell.infinity()
        if method or lo[d, r] == hi[d, r]:
            return Cell.exact(lo[d, r], method or "bounds")
        return Cell("interval", lo[d, r], hi[d, r])

    cells = [[cell(d, r) for r in range(1, m + 1)] for d in range(1, r0 + 1)]
    return WeightMatrix(r0, m, tuple(hd.H), cells, fpm, budget)


# -- monomial equivalence ----------------------------------------------------------


def monomially_equivalent(C1, C2, beta):
    """Verify C2 = beta . C1 for the witness beta."""
    if C1.length != C2.length:
        raise ValueError("codes of different lengths")
    ok = C1.scaled(beta) == C2
    if ok:
        # symmetric form of the witness (dual equation)
        d1, d2 = C1.dual, C2.dual
        if not d2 == d1.scaled([C1.field.inv(int(b)) for b in beta]):
            raise InternalInconsistency("dual form of the witness failed")
    return ok
