"""Buchberger's algorithm, normal forms, the staircase of standard monomials,
and the minimal generator count."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import RingMismatch, Unsupported
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


def buchberger(gens, order):
    """Certified reduced Groebner basis of homogeneous generators.

    Normal selection strategy (smallest lcm first) with the coprime
    leading-term skip; final basis is minimalized, interreduced, monic, and
    sorted by ascending leading monomial.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return GroebnerBasis(order, [], certified=True)
    fld, nv = polys[0].field, polys[0].nvars
    for g in polys:
        if g.field != fld or g.nvars != nv:
            raise RingMismatch("generators live in different rings")
        if not g.is_homogeneous():
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
        r = normal_form(_spoly(G[i], G[j], order), GroebnerBasis(order, G))
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
    reduced = []
    for i, g in enumerate(minimal):
        others = GroebnerBasis(order, minimal[:i] + minimal[i + 1 :])
        r = normal_form(g, others)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(order, reduced, certified=True)


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


def _next_layer(layer, nvars, leads):
    """The monomials of degree e + 1 that no monomial of ``leads`` divides,
    given those of degree e (``None`` gives degree 0).  They form an order
    ideal, so each one is a variable times one of degree e."""
    if layer is None:
        cands = {(0,) * nvars}
    else:
        cands = {u[:i] + (u[i] + 1,) + u[i + 1 :] for u in layer for i in range(nvars)}
    return [v for v in cands if not any(monomial_divides(g, v) for g in leads)]


# -- minimal number of generators ------------------------------------------------


def minimal_generator_count(gb, r0):
    """Number of minimal homogeneous generators of the ideal of the
    certified basis ``gb``, by linear algebra in degrees <= r0 + 1.

    The products g*w of the generators with the monomials w span I_d, and
    the standard monomials of degree d are a basis of S_d/I_d, so
    dim I_d = C(d+s-1, s-1) - |standard monomials of degree d|.  The
    minimal generators of degree d number dim I_d minus the rank of the
    products with deg w >= 1.
    """
    fld = gb.field
    nv = gb.nvars
    layers = standard_monomials_upto(gb, nv, r0 + 1)
    total = 0
    for d in range(1, r0 + 2):
        monos = list(monomials_of_degree(nv, d))
        via_lower = []
        for g in gb.gens:
            dg = g.homogeneous_degree()
            if dg < d:
                via_lower += [g.mul_term(w) for w in monomials_of_degree(nv, d - dg)]
        total += len(monos) - len(layers[d])
        if via_lower:
            total -= linalg.rank(fld, coefficient_matrix(via_lower, monos))
    return total
