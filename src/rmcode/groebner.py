"""Normal forms, Buchberger's criterion, the staircase of standard monomials,
and linear algebra on the ideal of a certified basis."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from . import linalg
from .errors import RingMismatch
from .polyring import (
    Poly,
    TermOrder,
    coefficient_matrix,
    monomial_coprime,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomials_of_degree,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A tuple of monic generators under a fixed graded order.

    ``certified`` is set once every S-polynomial has been checked to reduce
    to zero (Buchberger's criterion), i.e. once the list is known to be an
    actual Groebner basis.  The basis is immutable, so its leading
    monomials ``leads`` are computed once, and the staircase that
    ``standard_monomials_upto`` memoizes on it cannot go stale.
    """

    order: TermOrder
    gens: tuple = ()
    certified: bool = dc_field(default=False, compare=False)
    leads: tuple = dc_field(init=False, repr=False, compare=False)
    _staircase: dict = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(
            self, "leads", tuple(g.leading_monomial(self.order) for g in self.gens)
        )

    @property
    def field(self):
        return self.gens[0].field if self.gens else None

    @property
    def nvars(self):
        return self.gens[0].nvars if self.gens else 0

    def to_strings(self):
        return [g.to_str(self.order) for g in self.gens]


def normal_form(f, gb):
    """Remainder on division of f by the basis: no term of the result is
    divisible by a leading monomial, and f minus the result lies in (gens)."""
    gens = gb.gens
    order = gb.order
    if gens and (f.field != gens[0].field or f.nvars != gens[0].nvars):
        raise RingMismatch("polynomial and basis live in different rings")
    fld = f.field
    leads = list(zip(gb.leads, gens))
    work = f
    rem = Poly.zero(fld, f.nvars)
    while not work.is_zero():
        u = work.leading_monomial(order)
        c = work.terms[u]
        for m, g in leads:
            if monomial_divides(m, u):
                factor = fld.div(c, g.terms[m])
                work = work - g.mul_term(monomial_div(u, m), factor)
                break
        else:
            rem = rem + Poly.monomial(fld, f.nvars, u, c)
            work = work - Poly.monomial(fld, f.nvars, u, c)
    return rem


def _spoly(f, g, order):
    fld = f.field
    mf, mg = f.leading_monomial(order), g.leading_monomial(order)
    L = monomial_lcm(mf, mg)
    a = f.mul_term(monomial_div(L, mf), fld.inv(f.terms[mf]))
    b = g.mul_term(monomial_div(L, mg), fld.inv(g.terms[mg]))
    return a - b


def gb_certify(gb):
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    gens, leads, order = gb.gens, gb.leads, gb.order
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if monomial_coprime(leads[i], leads[j]):
                continue
            if not normal_form(_spoly(gens[i], gens[j], order), gb).is_zero():
                return False
    return True


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


# -- the ideal of a certified basis, degree by degree ------------------------------


def _products_rank(fld, polys, nvars, d, wmin):
    """Rank of the degree-d products g*w of the homogeneous ``polys`` with
    the monomials w of degree >= wmin."""
    rows = []
    for g in polys:
        dw = d - g.homogeneous_degree()
        if dw >= wmin:
            rows += [g.mul_term(w) for w in monomials_of_degree(nvars, dw)]
    return linalg.rank(fld, coefficient_matrix(rows, list(monomials_of_degree(nvars, d))))


def _ideal_dim(layers, nvars, d):
    """dim I_d = C(d+s-1, s-1) - |standard monomials of degree d|: the
    standard monomials of degree d are a basis of S_d/I_d."""
    return comb(d + nvars - 1, nvars - 1) - len(layers[d])


def minimal_generator_count(gb, r0):
    """Number of minimal homogeneous generators of the ideal of the
    certified basis ``gb``, by linear algebra in degrees <= r0 + 1.

    The products g*w of the generators with the monomials w span I_d, so
    the minimal generators of degree d number dim I_d minus the rank of the
    products with deg w >= 1.  A rank is needed only in the degrees of the
    basis above the lowest: in any other degree every g*w has deg w >= 1,
    so I_d = S_1 I_(d-1) adds no generator, and in the lowest I_(d-1) = 0,
    so the count there is dim I_d.
    """
    degrees = sorted({g.homogeneous_degree() for g in gb.gens} & set(range(1, r0 + 2)))
    if not degrees:
        return 0
    nv = gb.nvars
    layers = standard_monomials_upto(gb, nv, degrees[-1])
    low, *rest = degrees
    return _ideal_dim(layers, nv, low) + sum(
        _ideal_dim(layers, nv, d) - _products_rank(gb.field, gb.gens, nv, d, 1)
        for d in rest
    )


def generates(polys, gb):
    """Whether the polynomials ``polys`` generate the ideal I of the
    certified basis ``gb``, by linear algebra.

    They must be homogeneous with normal form 0, so (polys) lies in I; and
    in each degree d up to the top degree of either list their products g*w
    must span I_d, which puts every element of ``gb`` in (polys).
    """
    polys = [g for g in polys if not g.is_zero()]
    if any(g.homogeneous_degree() is None or not normal_form(g, gb).is_zero() for g in polys):
        return False
    nv = gb.nvars
    top = max((g.homogeneous_degree() for g in (*polys, *gb.gens)), default=0)
    layers = standard_monomials_upto(gb, nv, top)
    return all(
        _products_rank(gb.field, polys, nv, d, 0) == _ideal_dim(layers, nv, d)
        for d in range(1, top + 1)
    )
