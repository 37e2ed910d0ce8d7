"""Buchberger's algorithm, an independent construction of the reduced
Groebner basis of any homogeneous generators.  It is the oracle of
``variety.vanishing_ideal``, ``artinian.artinian_reduce`` and the golden
corpus's comparison of stored generators.  The all-degree count of minimal
generators is the oracle of ``groebner.minimal_generator_count``."""

import heapq

from rmcode.errors import RingMismatch, Unsupported
from rmcode.groebner import (
    GroebnerBasis,
    _ideal_dim,
    _products_rank,
    _spoly,
    normal_form,
    standard_monomials_upto,
)
from rmcode.polyring import monomial_coprime, monomial_divides, monomial_lcm


def is_homogeneous(g):
    return len({sum(u) for u in g.terms}) <= 1


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


def minimal_generator_count_all_degrees(gb, r0):
    """Minimal generators of the ideal of ``gb`` degree by degree for every
    d = 1..r0 + 1: dim I_d minus the rank of the products g*w with
    deg w >= 1."""
    nv = gb.nvars
    layers = standard_monomials_upto(gb, nv, r0 + 1)
    return sum(
        _ideal_dim(layers, nv, d) - _products_rank(gb.field, gb.gens, nv, d, 1)
        for d in range(1, r0 + 2)
    )
