"""The per-cell footprint fp(d, r) from its definition, with the monomial-ideal
arithmetic it needs (colon, intersection, dimension and degree): the oracle
of ``codes.footprint_matrix``."""

import itertools
from dataclasses import dataclass, field as dc_field

from rmcode.errors import Unsupported
from rmcode.groebner import _next_layer, standard_monomials_upto
from rmcode.polyring import monomial_divides, monomial_lcm

from groebner_oracle import monomial_div


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
            self.s, tuple(monomial_lcm(a, b) for a in self.gens for b in other.gens)
        )

    def plus(self, monos):
        return MonomialIdeal(self.s, self.gens + tuple(monos))


def initial_ideal(gb):
    return MonomialIdeal(gb.nvars, gb.leads)


def monomial_colon(L, F):
    """(L : (F)) for a nonempty monomial list F."""
    if not F:
        raise ValueError("colon by the empty set")
    out = L.colon_monomial(F[0])
    for m in F[1:]:
        out = out.intersect(L.colon_monomial(m))
    return out


def is_saturated(L):
    """(L : (t_1, ..., t_s)) == L."""
    unit = [tuple(int(i == j) for j in range(L.s)) for i in range(L.s)]
    return monomial_colon(L, unit) == L


def monomial_dim_degree(L, s=None):
    """(dim, degree) of S/L with the usual degree semantics: vector-space
    dimension when dim = 0, stabilized per-degree standard-monomial count
    (multiplicity) when dim = 1."""
    s = L.s if s is None else s
    if s > 10:
        raise Unsupported("monomial-ideal dimension guard: s <= 10")
    if L.is_zero():
        raise ValueError(f"S/L has dimension {s}, not 0 or 1")
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
        raise ValueError(f"S/L has dimension {dim} >= 2")
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


def footprint(gb, d, r, nvars=None, degree=None):
    """fp(d, r) = deg(S/I) - max over r-subsets F of the degree-d standard
    monomials of: deg(S/(in(I)+(F))) when (in(I) : F) != in(I), else 0."""
    init = initial_ideal(gb)
    if degree is None:
        _, degree = monomial_dim_degree(init)
    monos = standard_monomials_upto(gb, nvars or gb.nvars, d)[d]
    if not 1 <= r <= len(monos):
        raise ValueError(f"r must be in 1..{len(monos)}")
    best = 0
    for F in itertools.combinations(monos, r):
        if monomial_colon(init, list(F)) == init:
            contrib = 0
        else:
            _, degF = monomial_dim_degree(init.plus(F))
            contrib = degF
        best = max(best, contrib)
    return degree - best
