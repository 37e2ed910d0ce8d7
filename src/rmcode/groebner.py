"""Buchberger's algorithm, initial ideals, standard monomials, and the
monomial-ideal bookkeeping (dimension, degree, colon) behind the footprint
functions."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import DimensionTooLarge, RingMismatch, Unsupported
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
    actual Groebner basis.  The basis is immutable, so the staircase that
    ``standard_monomials_upto`` memoizes on it cannot go stale.
    """

    order: TermOrder
    gens: tuple = ()
    certified: bool = dc_field(default=False, compare=False)
    _staircase: dict = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))

    @property
    def field(self):
        return self.gens[0].field if self.gens else None

    @property
    def nvars(self):
        return self.gens[0].nvars if self.gens else 0

    def leading_monomials(self):
        return [g.leading_monomial(self.order) for g in self.gens]

    def initial_ideal(self):
        return MonomialIdeal(self.nvars, tuple(self.leading_monomials()))

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
    leads = [(g.leading_monomial(order), g) for g in gens]
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
    gens, order = gb.gens, gb.order
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            mi = gens[i].leading_monomial(order)
            mj = gens[j].leading_monomial(order)
            if monomial_coprime(mi, mj):
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
        leads = gb.leading_monomials()
        while len(layers) <= dmax:
            nxt = _next_layer(layers[-1] if layers else None, nvars, leads)
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


# -- monomial ideals -----------------------------------------------------------


def _minimalize(monos):
    monos = sorted(set(monos), key=lambda u: (sum(u), u))
    out = []
    for u in monos:
        if not any(monomial_divides(v, u) for v in out):
            out.append(u)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators; the per-degree
    standard monomials are grown once and kept."""

    s: int
    gens: tuple
    _layers: list = dc_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "gens", _minimalize(self.gens))

    def contains(self, u):
        return any(monomial_divides(g, u) for g in self.gens)

    def is_zero(self):
        return not self.gens

    def standard_count(self, d):
        layers = self._layers
        while len(layers) <= d:
            below = layers[-1] if layers else None
            layers.append(_next_layer(below, self.s, self.gens))
        return len(layers[d])

    def colon_monomial(self, m):
        """(self : t^m), generated by lcm(g, t^m)/t^m."""
        return MonomialIdeal(
            self.s, tuple(monomial_div(monomial_lcm(g, m), m) for g in self.gens)
        )

    def intersect(self, other):
        if self.is_zero() or other.is_zero():
            return MonomialIdeal(self.s, ())
        return MonomialIdeal(
            self.s,
            tuple(
                monomial_lcm(a, b)
                for a in self.gens
                for b in other.gens
            ),
        )

    def plus(self, monos):
        return MonomialIdeal(self.s, self.gens + tuple(monos))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.s == other.s
            and self.gens == other.gens
        )


def monomial_colon(L, F):
    """(L : (F)) for a nonempty monomial list F."""
    if not F:
        raise ValueError("colon by the empty set")
    out = L.colon_monomial(F[0])
    for m in F[1:]:
        out = out.intersect(L.colon_monomial(m))
    return out


def monomial_dim_degree(L, s=None):
    """(dim, degree) of S/L with the usual degree semantics: vector-space
    dimension when dim = 0, stabilized per-degree standard-monomial count
    (multiplicity) when dim = 1."""
    s = L.s if s is None else s
    if s > 10:
        raise Unsupported("monomial-ideal dimension guard: s <= 10")
    if L.is_zero():
        raise DimensionTooLarge(f"S/L has dimension {s} >= 2" if s >= 2 else "dim 1")
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in L.gens]
    if any(not sup for sup in supports):
        raise ValueError("unit monomial ideal")
    ht = None
    for size in range(0, s + 1):
        for subset in itertools.combinations(range(s), size):
            sub = set(subset)
            if all(sup & sub for sup in supports):
                ht = size
                break
        if ht is not None:
            break
    dim = s - ht
    if dim >= 2:
        raise DimensionTooLarge(f"S/L has dimension {dim} >= 2")
    D = sum(max((g[i] for g in L.gens), default=0) for i in range(s))
    if dim == 0:
        bounds = []
        for i in range(s):
            pure = [g[i] for g in L.gens if all(e == 0 for j, e in enumerate(g) if j != i)]
            bounds.append(min(pure))
        count = 0
        for u in itertools.product(*(range(b) for b in bounds)):
            if not L.contains(u):
                count += 1
        return 0, count
    cD = L.standard_count(D)
    cD1 = L.standard_count(D + 1)
    assert cD == cD1, "standard-monomial counts failed to stabilize"
    return 1, cD


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
