"""The row basis of a homogeneous ideal, the staircase of standard
monomials, and Buchberger's criterion, ideal membership and the ideal's
dimensions by row reduction over the monomials of one degree."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb

import numpy as np

from . import linalg
from .polyring import TermOrder, monomials_of_degree, row_text, term_texts


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """Monic homogeneous generators under a fixed graded order.

    Generator i is ``leads[i] + sum_j rows[i][j] * std[j]``, std being
    ``standard_monomials_upto(gb, nvars, d)[d]``, the standard monomials of
    its degree d, descending (a reduced basis has no other non-lead term);
    every term with a nonzero coefficient is below the lead.  The basis is
    immutable, so the staircase memoized on it cannot go stale.
    """

    order: TermOrder
    field: object
    nvars: int
    leads: tuple = ()
    rows: tuple = ()
    _staircase: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "leads", tuple(self.leads))
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            row.flags.writeable = False

    @classmethod
    def from_polys(cls, order, field, nvars, polys):
        """The basis of monic homogeneous polynomials whose other terms are
        standard monomials of their degree; a KeyError names one that is
        not."""
        leads = [g.leading_monomial(order) for g in polys]
        probe = cls(order, field, nvars, leads)
        layers = standard_monomials_upto(probe, nvars, max(map(sum, leads), default=0))
        rows = [np.zeros(len(layers[sum(u)]), dtype=int) for u in leads]
        for u, g, row in zip(leads, polys, rows):
            index = {v: j for j, v in enumerate(layers[sum(u)])}
            for v in g.terms.keys() - {u}:
                row[index[v]] = g.terms[v]
        return cls(order, field, nvars, leads, rows)

    def to_strings(self):
        layers = standard_monomials_upto(self, self.nvars, max(map(sum, self.leads), default=0))
        out, cache = [], {}
        for u, row in zip(self.leads, self.rows):
            nz = np.flatnonzero(row)
            texts = term_texts([u, *(layers[sum(u)][j] for j in nz)])
            out.append(row_text(self.field, texts, np.append(1, row[nz]), cache))
        return out


def standard_monomials_upto(gb, nvars, dmax):
    """Per-degree standard monomials for d = 0..dmax, each layer descending
    (works for the zero ideal).  The layers are computed once per basis and
    ring and shared, as tuples, by every caller."""
    layers = gb._staircase.setdefault(nvars, [])
    if len(layers) <= dmax:
        while len(layers) <= dmax:
            nxt = _next_layer(layers[-1] if layers else None, nvars, gb.leads)
            layers.append(tuple(gb.order.sorted_desc(nxt)))
    return layers[: dmax + 1]


def _divided(monos, leads):
    """The mask of the monomials that some monomial of ``leads`` divides:
    one broadcast comparison of their exponent arrays."""
    if not monos or not leads:
        return np.zeros(len(monos), dtype=bool)
    C, L = np.array(monos), np.array(leads)
    return np.all(C[:, None] >= L[None], axis=2).any(axis=1)


def _next_layer(layer, nvars, leads):
    """The monomials of degree e + 1 that no monomial of ``leads`` divides,
    given those of degree e (``None`` gives degree 0), in no particular
    order.  They form an order ideal, so each one is a variable times one
    of degree e."""
    if layer is None:
        cands = [(0,) * nvars]
    else:
        cands = list({u[:i] + (u[i] + 1,) + u[i + 1 :] for u in layer for i in range(nvars)})
    return [v for v, hit in zip(cands, _divided(cands, leads)) if not hit]


# -- rows over the monomials of one degree ----------------------------------------


@lru_cache(maxsize=64)
def _binomials(n, s):
    """C(b, k) for b < n and 1 <= k < s, read-only."""
    table = np.array([[comb(b, k) for k in range(1, s)] for b in range(n)], dtype=np.int64)
    table.flags.writeable = False
    return table.reshape(n, s - 1)


def _ranks(U):
    """The rank of each monomial, the last axis of the exponent array U,
    among the C(e+s-1, s-1) monomials of its degree e.  In stars and bars
    the bars of u sit at b_k = u_0 + ... + u_(k-1) + k - 1, k = 1..s-1,
    and sum_k C(b_k, k) numbers the (s-1)-subsets of {0, ..., e+s-2}."""
    s = U.shape[-1]
    B = np.cumsum(U[..., :-1], axis=-1) + np.arange(s - 1)
    return _binomials(int(B.max(initial=0)) + 1, s)[B, np.arange(s - 1)].sum(axis=-1)


def _terms(gb):
    """Each generator as (M, c): the exponent array of its terms with a
    nonzero coefficient, the lead first, and their coefficients."""
    s = gb.nvars
    layers = standard_monomials_upto(gb, s, max(map(sum, gb.leads), default=0))
    layers = {d: np.array(layers[d], dtype=int).reshape(-1, s) for d in map(sum, gb.leads)}
    return [
        (np.vstack([u, layers[sum(u)][row != 0]]), np.append(1, row[row != 0]))
        for u, row in zip(gb.leads, gb.rows)
    ]


def _shifted(gens, which, W, col):
    """The products W[k] * gens[which[k]] as rows over the monomials of
    their degree, the monomial of rank r in column col[r]: an index shift
    of each generator's terms, one scatter per generator."""
    out = np.zeros((len(which), len(col)), dtype=np.int64)
    for g in set(which.tolist()):
        k = np.flatnonzero(which == g)
        M, c = gens[g]
        out[k[:, None], col[_ranks(M + W[k, None])]] = c
    return out


def _columns(gb, e):
    """(U, col, L, divides): the monomials of degree e descending, as an
    exponent array; the column col[r] of the monomial of rank r; the leads
    as an array; whether lead g divides the monomial of column c, at [c, g]."""
    U = gb.order.monomials_desc(gb.nvars, e)
    col = np.empty(len(U), dtype=int)
    col[_ranks(U)] = np.arange(len(U))
    L = np.array(gb.leads, dtype=int).reshape(-1, gb.nvars)
    return U, col, L, np.all(U[:, None] >= L[None], axis=2)


def _remainder(gb, gens, S, columns):
    """The rows S over the monomials of one degree reduced modulo the basis,
    in place: the largest non-standard monomial u in the support of any
    row is cancelled in every row at once by one reducer (u/lead_g)*g, g
    the first generator whose lead divides u, until no row has one.  Each
    reducer has u for its leading term, so this is division, row by row,
    and it changes only the columns from u's on."""
    U, col, L, divides = columns
    f, ns = gb.field, divides.any(axis=1)
    reducers = {}  # built for every column hit so far, at once when first hit
    while True:
        hit = S.any(axis=0) & ns
        c = int(hit.argmax())
        if not hit[c]:
            return S
        if c not in reducers:
            new = [x for x in np.flatnonzero(hit).tolist() if x not in reducers]
            g = divides[new].argmax(axis=1)
            reducers.update(zip(new, _shifted(gens, g, U[new] - L[g], col)))
        k = np.flatnonzero(S[:, c])
        S[k, c:] = f.sub_mul_arr(S[k, c:], S[k, c][:, None], reducers[c][None, c:])


def gb_certify(gb):
    """Buchberger's criterion: the S-polynomial of every two generators
    whose leading monomials are not coprime reduces to zero.

    The S-polynomials of one lcm degree e are rows over the degree-e
    monomials, each the difference of two index shifts, and ``_remainder``
    reduces them together."""
    f, s = gb.field, gb.nvars
    L = np.array(gb.leads, dtype=np.int64).reshape(-1, s)
    i, j = np.triu_indices(len(L), 1)
    pair = np.any(np.minimum(L[i], L[j]) > 0, axis=1)
    i, j = i[pair], j[pair]
    lcm = np.maximum(L[i], L[j])
    degree = lcm.sum(axis=1)
    gens = _terms(gb) if len(degree) else None
    for e in set(degree.tolist()):
        k = degree == e
        columns = _columns(gb, e)
        S = f.sub_arr(*(_shifted(gens, a[k], lcm[k] - L[a[k]], columns[1]) for a in (i, j)))
        if np.any(_remainder(gb, gens, S, columns)):
            return False
    return True


# -- the ideal of a Groebner basis, degree by degree ---------------------------------


def _products_rank(field, gens, nvars, d, wmin):
    """Rank of the degree-d products g*w of the homogeneous ``gens``, each
    (M, c) as ``_terms`` gives, with the monomials w of degree >= wmin."""
    products = [
        (g, w)
        for g, (M, _) in enumerate(gens)
        if d - M[0].sum() >= wmin
        for w in monomials_of_degree(nvars, d - int(M[0].sum()))
    ]
    if not products:
        return 0
    which, W = map(np.array, zip(*products))
    return linalg.rank(field, _shifted(gens, which, W, np.arange(comb(d + nvars - 1, nvars - 1))))


def _ideal_dim(layers, nvars, d):
    """dim I_d = C(d+s-1, s-1) - |standard monomials of degree d|: the
    standard monomials of degree d are a basis of S_d/I_d."""
    return comb(d + nvars - 1, nvars - 1) - len(layers[d])


def minimal_generator_count(gb, r0):
    """Number of minimal homogeneous generators of the ideal of the
    Groebner basis ``gb``, by linear algebra in degrees <= r0 + 1.

    The products g*w of the generators with the monomials w span I_d, so
    the minimal generators of degree d number dim I_d minus the rank of the
    products with deg w >= 1.  A rank is needed only in the degrees of the
    basis above the lowest: in any other degree every g*w has deg w >= 1,
    so I_d = S_1 I_(d-1) adds no generator, and in the lowest I_(d-1) = 0,
    so the count there is dim I_d.
    """
    degrees = sorted(set(map(sum, gb.leads)) & set(range(1, r0 + 2)))
    if not degrees:
        return 0
    nv = gb.nvars
    layers = standard_monomials_upto(gb, nv, degrees[-1])
    low, *rest = degrees
    gens = _terms(gb) if rest else None
    return _ideal_dim(layers, nv, low) + sum(
        _ideal_dim(layers, nv, d) - _products_rank(gb.field, gens, nv, d, 1)
        for d in rest
    )


def generates(polys, gb):
    """Whether the polynomials ``polys`` generate the ideal I of the
    Groebner basis ``gb``, by linear algebra.

    They must be homogeneous and reduce to zero, so (polys) lies in I; and
    in each degree d up to the top degree of either list their products
    g*w must span I_d, which puts every element of ``gb`` in (polys).
    """
    polys = [g for g in polys if not g.is_zero()]
    degrees = [g.homogeneous_degree() for g in polys]
    if None in degrees:
        return False
    f, nv = gb.field, gb.nvars
    gens = _terms(gb)
    polys = [(np.array(list(g.terms)), np.array(list(g.terms.values()))) for g in polys]
    for e in set(degrees):
        columns = _columns(gb, e)
        k = np.flatnonzero(np.array(degrees) == e)
        S = _shifted(polys, k, np.zeros((len(k), nv), dtype=int), columns[1])
        if np.any(_remainder(gb, gens, S, columns)):
            return False
    top = max([*map(sum, gb.leads), *degrees], default=0)
    layers = standard_monomials_upto(gb, nv, top)
    return all(
        _products_rank(f, polys, nv, d, 0) == _ideal_dim(layers, nv, d)
        for d in range(1, top + 1)
    )
