"""Dictionary polynomial arithmetic and the routes built on it: division
(``normal_form``), S-polynomials, Buchberger's criterion by division
(``certify_by_division``) and Buchberger's algorithm, an independent
construction of the reduced Groebner basis of any homogeneous generators.
They are the oracles of the row basis of ``rmcode.groebner``: of
``gb_certify``, ``generates`` and ``minimal_generator_count``, of
``variety.vanishing_ideal``, ``artinian.artinian_reduce`` and the golden
corpus's comparison of stored generators.  ``polys_of`` and ``basis_of``
convert between the row basis and lists of ``Poly``."""

import heapq

import numpy as np

from rmcode.errors import Unsupported
from rmcode.groebner import (
    GroebnerBasis,
    _ideal_dim,
    _products_rank,
    _terms,
    standard_monomials_upto,
)
from rmcode.polyring import (
    Poly,
    monomial_coprime,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


# -- ring arithmetic on dictionaries ------------------------------------------------


class RingMismatch(ValueError):
    """Polynomials of different rings met in one operation."""


def add(f, g):
    if f.field != g.field or f.nvars != g.nvars:
        raise RingMismatch("polynomials live in different rings")
    fld = f.field
    out = dict(f.terms)
    for u, c in g.terms.items():
        out[u] = fld.add(out.get(u, 0), c)
    return Poly(fld, f.nvars, out)


def scale(f, code):
    fld = f.field
    return Poly(fld, f.nvars, {u: fld.mul(c, code) for u, c in f.terms.items()})


def neg(f):
    return scale(f, f.field.neg(1))


def sub(f, g):
    return add(f, neg(g))


def mul_term(g, u, code=1):
    """g times code * t^u."""
    fld = g.field
    return Poly(
        fld, g.nvars, {monomial_mul(v, u): fld.mul(c, code) for v, c in g.terms.items()}
    )


def monomial_div(v, u):
    """v / u, assuming u | v."""
    return tuple(b - a for a, b in zip(u, v))


def coefficient_matrix(polys, monos):
    """The (len(polys), len(monos)) matrix of coefficient codes of the
    polynomials over the monomials ``monos``, which include every term."""
    index = {u: i for i, u in enumerate(monos)}
    out = np.zeros((len(polys), len(monos)), dtype=np.int64)
    for row, g in zip(out, polys):
        for u, c in g.terms.items():
            row[index[u]] = c
    return out


def eval_polys(X, polys):
    """The (len(polys), m) matrix of values f(P_j)."""
    monos = sorted({u for g in polys for u in g.terms})
    return X.field.matmul(coefficient_matrix(polys, monos), X.eval_monomials(monos))


# -- conversions ----------------------------------------------------------------------


def linear_poly(field, coeffs):
    """The linear form with coefficients ``coeffs`` of t1..ts."""
    s = len(coeffs)
    units = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    return Poly(field, s, dict(zip(units, coeffs)))


def polys_of(gb):
    """The generators of the row basis ``gb`` as polynomials."""
    return [
        Poly(gb.field, gb.nvars, {tuple(u): int(c) for u, c in zip(M, cs)})
        for M, cs in _terms(gb)
    ]


def basis_of(polys, order):
    """The row basis of the nonzero polynomials, each made monic."""
    polys = [g.monic(order) for g in polys if not g.is_zero()]
    return GroebnerBasis.from_polys(order, polys[0].field, polys[0].nvars, polys)


# -- division -------------------------------------------------------------------------


def _divide(f, gens, order):
    """Remainder on division of f by the monic polynomials ``gens``, each
    leading monomial reduced by the first generator whose lead divides it."""
    if gens and (f.field != gens[0].field or f.nvars != gens[0].nvars):
        raise RingMismatch("polynomial and basis live in different rings")
    fld = f.field
    leads = [(g.leading_monomial(order), g) for g in gens]
    work = f
    rem = Poly(fld, f.nvars)
    while not work.is_zero():
        u = work.leading_monomial(order)
        c = work.terms[u]
        for m, g in leads:
            if monomial_divides(m, u):
                work = sub(work, mul_term(g, monomial_div(u, m), fld.div(c, g.terms[m])))
                break
        else:
            rem = add(rem, Poly(fld, f.nvars, {u: c}))
            work = sub(work, Poly(fld, f.nvars, {u: c}))
    return rem


def normal_form(f, gb):
    """Remainder on division of f by the basis: no term of the result is
    divisible by a leading monomial, and f minus the result lies in (gens)."""
    return _divide(f, polys_of(gb), gb.order)


def _spoly(f, g, order):
    fld = f.field
    mf, mg = f.leading_monomial(order), g.leading_monomial(order)
    L = monomial_lcm(mf, mg)
    a = mul_term(f, monomial_div(L, mf), fld.inv(f.terms[mf]))
    b = mul_term(g, monomial_div(L, mg), fld.inv(g.terms[mg]))
    return sub(a, b)


def certify_by_division(gb):
    """Buchberger's criterion by division: every S-polynomial of two
    generators with non-coprime leading monomials has remainder 0."""
    gens, order = polys_of(gb), gb.order
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if monomial_coprime(gb.leads[i], gb.leads[j]):
                continue
            if not _divide(_spoly(gens[i], gens[j], order), gens, order).is_zero():
                return False
    return True


def is_homogeneous(g):
    return len({sum(u) for u in g.terms}) <= 1


def buchberger(gens, order):
    """The reduced Groebner basis of homogeneous generators, as a row
    basis.

    Normal selection strategy (smallest lcm first) with the coprime
    leading-term skip; final basis is minimalized, interreduced, monic, and
    sorted by ascending leading monomial.
    """
    fld, nv = gens[0].field, gens[0].nvars
    polys = [g for g in gens if not g.is_zero()]
    for g in polys:
        if g.field != fld or g.nvars != nv:
            raise RingMismatch("generators live in different rings")
        if not is_homogeneous(g):
            raise Unsupported("only homogeneous (graded) ideals are handled")

    G = []
    leads = []
    heap = []

    def push_pairs(j):
        for i in range(j):
            L = monomial_lcm(leads[i], leads[j])
            heapq.heappush(heap, (sum(L), order.key(L), i, j))

    for g in polys:
        G.append(g.monic(order))
        leads.append(G[-1].leading_monomial(order))
        push_pairs(len(G) - 1)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if monomial_coprime(leads[i], leads[j]):
            continue
        r = _divide(_spoly(G[i], G[j], order), G, order)
        if not r.is_zero():
            G.append(r.monic(order))
            leads.append(G[-1].leading_monomial(order))
            push_pairs(len(G) - 1)

    # minimalize: keep only generators with minimal leading monomials
    keep = []
    for idx in sorted(range(len(G)), key=lambda t: order.key(leads[t])):
        if not any(monomial_divides(leads[k], leads[idx]) for k in keep):
            keep.append(idx)
    minimal = [G[k] for k in keep]
    # interreduce: replace every generator by its remainder modulo the others
    reduced = [
        _divide(g, minimal[:i] + minimal[i + 1 :], order).monic(order)
        for i, g in enumerate(minimal)
    ]
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis.from_polys(order, fld, nv, reduced)


def minimal_generator_count_all_degrees(gb, r0):
    """Minimal generators of the ideal of ``gb`` degree by degree for every
    d = 1..r0 + 1: dim I_d minus the rank of the products g*w with
    deg w >= 1."""
    nv = gb.nvars
    layers = standard_monomials_upto(gb, nv, r0 + 1)
    gens = _terms(gb)
    return sum(
        _ideal_dim(layers, nv, d) - _products_rank(gb.field, gens, nv, d, 1)
        for d in range(1, r0 + 2)
    )
