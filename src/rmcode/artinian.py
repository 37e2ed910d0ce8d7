"""Artinian reductions S/(I, h), socle computation, and the Gorenstein /
level / type / s-number classification, including the socle-indicator
identities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    IdentityViolated,
    InternalInconsistency,
    InvalidParams,
    NotGorenstein,
    NotRegular,
)
from .codes import LinearCode
from .gf import Field
from .groebner import (
    GroebnerBasis,
    _next_layer,
    gb_certify,
    standard_monomials_upto,
)
from .polyring import Poly, format_monomial, monomial_support
from .variety import PointSet, basis_elements, interpolation_step


@dataclass(eq=False)
class ArtinianReduction:
    """S/J for J = (I(X), h), built by one interpolation step per degree.

    ``basis`` is the reduced certified Groebner basis of J.  ``steps[e]`` is
    (candidates, std, nf) of degree e: the candidates are every variable
    times every standard monomial of degree e - 1, ascending; std indexes
    the standard ones; column j of nf is the normal form of candidate j
    over them, read off the evaluations reduced modulo the RREF basis of
    h*C_X(e-1).  The last step has no standard monomial.
    """

    basis: GroebnerBasis
    steps: list

    def layer(self, e):
        """The standard monomials of S/J of degree e, descending."""
        candidates, std = self.steps[e][:2]
        return [candidates[c] for c in reversed(std)]


@dataclass
class ArtinianClassification:
    h: Poly
    extension_degree: int
    reduction: ArtinianReduction
    socle: list              # (degree, standard polynomial) pairs
    type_: int
    level: bool
    gorenstein: bool
    s_number: int
    socle_monomial: tuple | None

    @property
    def J_basis(self):
        return self.reduction.basis

    @property
    def socle_degrees(self):
        return sorted({d for d, _ in self.socle})

    def as_dict(self, order):
        return {
            "h": self.h.to_str(order),
            "extension_degree": self.extension_degree,
            "type": self.type_,
            "level": self.level,
            "gorenstein": self.gorenstein,
            "s_number": self.s_number,
            "socle_degrees": self.socle_degrees,
            "socle": [
                {"degree": d, "polynomial": g.to_str(order)} for d, g in self.socle
            ],
            "socle_monomial": None
            if self.socle_monomial is None
            else format_monomial(self.socle_monomial),
        }


def _linear_form(field, s, coeffs):
    return Poly(field, s, {tuple(int(i == j) for j in range(s)): int(c)
                           for i, c in enumerate(coeffs) if c})


def _avoids_all(X, coeffs):
    return bool(np.all(X.field.matmul(X.coords, np.reshape(coeffs, (-1, 1)))))


def _first_regular_form(X):
    """The first linear form in preference order that vanishes at no point
    of X, as a coefficient tuple, or None.

    The order: t_s, then the other single variables, then the forms with
    at least two nonzero coefficients, first nonzero coefficient 1, by the
    position of that 1 and then lexicographically in the rest.  A
    depth-first search visits the rest in that order and cuts a prefix as
    soon as a point whose later coordinates are all 0 evaluates to 0: no
    completion of the prefix avoids that point.  The last coefficient c is
    read off at once: it must avoid the root -vals/t_s of each point with
    t_s != 0, so the first of the q candidates outside those m roots wins.
    """
    f, s, P = X.field, X.s, X.coords
    for j in (s - 1, *range(s - 1)):
        single = tuple(int(i == j) for i in range(s))
        if _avoids_all(X, single):
            return single
    # settled[j]: the points whose coordinates after j are all 0
    settled = [~np.any(P[:, j + 1 :], axis=1) for j in range(s - 1)]
    last = P[:, s - 1]
    on_last = last != 0
    inv_last = f.arr([f.inv(int(x)) for x in last[on_last]])

    def last_coeff(vals):
        roots = set(f.mul_arr(f.neg_arr(vals[on_last]), inv_last).tolist())
        return next((c for c in range(f.q) if c not in roots), None)

    def search(coeffs, vals):
        j = len(coeffs) - 1
        if np.any(vals[settled[j]] == 0):
            return None
        if j == s - 2:
            # every single variable failed above, so a form found here has
            # two nonzeros
            c = last_coeff(vals)
            return None if c is None else (*coeffs, c)
        for c in range(f.q):
            nxt = f.add_arr(vals, f.mul_arr(c, P[:, j + 1])) if c else vals
            hit = search(coeffs + [c], nxt)
            if hit is not None:
                return hit
        return None

    # the single t_s, the only form with lead s, failed above
    for lead in range(s - 1):
        hit = search([0] * lead + [1], P[:, lead])
        if hit is not None:
            return hit
    return None


def _least_extension_degree(X):
    """The least e that counting allows for a regular linear form over
    F_{q^e}.

    Write the coefficients of a form over F_{q^e} in a basis of F_{q^e}
    over F_q: the form is e forms over F_q, and it vanishes at a point of
    X exactly when all e do.  So it is regular on X exactly when the
    common zeros of the e forms, a subspace of codimension <= e, miss X,
    and then a subspace of codimension exactly e does.  That subspace has
    (q^(s-e) - 1)/(q - 1) points, all among the N - m points of P^(s-1)
    outside X.  e = s always passes: its subspace is 0.
    """
    q, s = X.field.q, X.s
    outside = (q**s - 1) // (q - 1) - X.m
    return next(e for e in range(1, s + 1) if (q ** (s - e) - 1) // (q - 1) <= outside)


def find_regular_linear_form(X):
    """A degree-1 form avoiding every point of X, extending scalars if F_q
    admits none.  Returns (h, extension_degree, X_over_h_field).

    The degrees run up from the least one that counting allows, so no
    field is built for a degree that cannot have a regular form, and the
    first form found is the one a search from e = 1 finds.
    """
    e = _least_extension_degree(X)
    while True:
        workX = X if e == 1 else X.lift(_extension_field(X.field, e))
        coeffs = _first_regular_form(workX)
        if coeffs is not None:
            return _linear_form(workX.field, X.s, coeffs), e, workX
        e += 1


def _extension_field(base, e):
    from .gf import search_modulus

    p, k = base.p, base.k * e
    return Field(p, k, search_modulus(p, k))


def _over(X, F):
    """X with its coordinates in the field F of a linear form, and the map
    of element code arrays of X's field into F: the identity unless F
    extends it."""
    if F == X.field:
        return X, np.asarray
    table = X.field.embedding_into(F)
    return PointSet(F, table[X.coords], canonicalize=False), table.__getitem__


def artinian_reduce(A, h):
    """The reduction S/(I(X), h) of the ``Analysis`` A for a regular linear
    form h, over the field of h.

    J_e = I(X)_e + h*S_{e-1}, so (S/J)_e = C_X(e) / h*C_X(e-1): each degree
    is one interpolation step on X modulo h*C_X(e-1), whose RREF basis is
    the basis of ``A.code(e-1)`` mapped into the field of h and rescaled by
    ``LinearCode.scaled``.  The steps stop at the first degree without a
    standard monomial, e = r0 + 1.
    """
    F, order = h.field, A.order
    X, embed = _over(A.X, F)
    s, m = X.s, X.m
    if h.homogeneous_degree() != 1:
        raise InvalidParams(f"h = {h.to_str(order)} is not a nonzero linear form")
    hvals = X.eval_polys([h])[0]
    if np.any(hvals == 0):
        raise NotRegular(f"{h.to_str(order)} vanishes at a point of X")
    gens, leads, steps = [], [], []
    candidates = [(0,) * s]
    while True:
        hC = LinearCode(F, m, embed(A.code(len(steps) - 1).basis)).scaled(hvals)
        std, nf = interpolation_step(X, candidates, hC)
        gens += basis_elements(F, candidates, std, nf, leads)
        steps.append((candidates, std, nf))
        if not std:
            break
        layer = [candidates[c] for c in std]
        candidates = sorted(_next_layer(layer, s, ()), key=order.key)
    if not gb_certify(GroebnerBasis(order, gens)):
        raise InternalInconsistency(
            "the interpolated basis of (I, h) failed certification"
        )
    return ArtinianReduction(GroebnerBasis(order, gens, certified=True), steps)


def socle(red):
    """Socle basis, top degree, type, level/Gorenstein flags and s-number
    of the reduction S/J.

    Soc_e is the joint kernel of the multiplication maps t_i:
    (S/J)_e -> (S/J)_{e+1}; the column of t_i at u is the normal form of
    t_i*u, a candidate of the degree-(e+1) step.
    """
    f, s = red.basis.field, red.basis.nvars
    top = len(red.steps) - 2
    soc = []
    for e in range(top + 1):
        layer = red.layer(e)
        candidates, _, nf = red.steps[e + 1]
        index = {u: j for j, u in enumerate(candidates)}
        maps = [
            nf[:, [index[u[:i] + (u[i] + 1,) + u[i + 1 :]] for u in layer]]
            for i in range(s)
        ]
        for vec in linalg.nullspace(f, np.concatenate(maps)):
            soc.append((e, Poly(f, s, {u: int(c) for u, c in zip(layer, vec) if c})))
    if not soc:
        raise InternalInconsistency("an Artinian quotient has a nonzero socle")
    type_ = len(soc)
    degrees = sorted({d for d, _ in soc})
    return soc, top, type_, len(degrees) == 1, type_ == 1, degrees[0]


def classify(A, h=None):
    """Full Artinian-reduction classification of the vanishing ideal of the
    ``Analysis`` A.

    ``h`` may pin a particular regular linear form (over the base field);
    by default the preference-ordered search is used, extending scalars when
    no form over F_q avoids all points.
    """
    X, hd = A.X, A.hd
    if h is None:
        h, ext_degree, _ = find_regular_linear_form(X)
    else:
        ext_degree = 1
    red = artinian_reduce(A, h)
    soc, top, type_, level, gorenstein, s_number = socle(red)
    if top != hd.r0:
        raise InternalInconsistency(
            f"largest nonzero degree of S/J is {top}, expected r0 = {hd.r0}"
        )
    # Hilbert values of the reduction must be the h-vector
    dims = tuple(len(step[1]) for step in red.steps[: top + 1])
    if dims != hd.h_vector:
        raise InternalInconsistency(
            f"reduction Hilbert values {dims} differ from the h-vector {hd.h_vector}"
        )
    socle_monomial = None
    if gorenstein:
        top_std = red.layer(hd.r0)
        if len(top_std) != 1:
            raise InternalInconsistency(
                "Gorenstein reduction must have a unique top standard monomial"
            )
        socle_monomial = top_std[0]
    if level and hd.symmetric and not gorenstein:
        raise InternalInconsistency(
            "level with symmetric h-vector must be Gorenstein"
        )
    return ArtinianClassification(
        h, ext_degree, red, soc, type_, level, gorenstein, s_number, socle_monomial
    )


def verify_socle_identities(A, cls):
    """The socle-indicator identities of a Gorenstein classification of the
    ``Analysis`` A.

    (1) the remainder of every f_i modulo J is a nonzero multiple of the top
    standard monomial; (2) every deg f_i equals r0; (3) under GRevLex with
    h = t_s and all last coordinates 1: the top monomial is essential and
    t_s-free, the multiple is lc(f_i), and f_i minus it is divisible by t_s;
    (4) multiplying standard monomials by powers of t_s stays standard.

    The remainders come from the degree-r0 step: f_i - lambda_i*t^a lies in
    J, so ev(f_i) = f_i(P_i)*e_i and lambda_i*ev(t^a) differ by a vector of
    h*C_X(r0-1), and lambda_i = f_i(P_i)*w_i for the w orthogonal to
    h*C_X(r0-1) with w . ev(t^a) = 1.  That w is mu*beta/h(P), for beta
    spanning C_X(r0-1)^perp, because (beta/h(P)) . (h*c) = beta . c.
    """
    if not cls.gorenstein:
        raise NotGorenstein("socle identities require a Gorenstein ideal")
    gb, isx = A.gb, A.isx
    r0 = A.hd.r0
    t_a = cls.socle_monomial
    fstar = cls.h.field
    X, embed = _over(A.X, fstar)
    D = A.dual(r0 - 1)
    if D.dimension != 1:
        raise InternalInconsistency("C_X(r0-1)^perp must be one-dimensional")
    hinv = fstar.arr([fstar.inv(int(v)) for v in X.eval_polys([cls.h])[0]])
    w = fstar.mul_arr(embed(D.basis[0]), hinv)
    dot = int(fstar.matmul(X.eval_monomials([t_a]), w[:, None])[0, 0])
    if dot == 0:
        raise InternalInconsistency("C_X(r0-1)^perp is orthogonal to ev(t^a)")
    w = fstar.mul_arr(w, fstar.inv(dot))
    values = embed(isx.values)
    lambdas = []
    for i, deg in enumerate(isx.degrees):
        if deg != r0:
            raise IdentityViolated(2, f"deg f_{i + 1} = {deg} != r0 = {r0}")
        lambdas.append(fstar.mul(int(values[i]), int(w[i])))
        if lambdas[-1] == 0:
            raise IdentityViolated(1, f"remainder of f_{i + 1} is not a t^a multiple")

    s = X.s
    order = gb.order
    perm = order.resolved_perm(s)
    last_var = perm[-1] - 1
    ts_mono = tuple(int(i == last_var) for i in range(s))
    special = (
        order.kind == "grevlex"
        and cls.h.terms == {ts_mono: 1}
        and bool(np.all(X.coords[:, last_var] == 1))
    )
    if special:
        if t_a not in set(isx.essential):
            raise IdentityViolated(3, "top standard monomial must be essential")
        if last_var in monomial_support(t_a):
            raise IdentityViolated(3, "top standard monomial must be t_s-free")
        # every f_i has degree r0, so the indicators are one block of rows
        # over the standard monomials of degree r0; t^a is one of them
        ((_, std, points, rows),) = isx.blocks
        rows = embed(rows)
        lcs = rows[np.arange(len(points)), np.argmax(rows != 0, axis=1)]
        a = std.index(t_a)
        others = [j for j, u in enumerate(std) if u[last_var] == 0 and j != a]
        for i, row, lc in zip(points, rows, lcs.tolist()):
            if lambdas[i] != lc:
                raise IdentityViolated(3, f"lambda_{i + 1} != lc(f_{i + 1})")
            if row[a] != lambdas[i] or np.any(row[others]):
                raise IdentityViolated(
                    3, f"f_{i + 1} - lambda*t^a must be divisible by t_s"
                )
        # multiplication by t_s preserves standardness
        layers = standard_monomials_upto(gb, s, r0 + 3)
        standard = set().union(*layers)
        for layer in layers[: r0 + 1]:
            for u in layer:
                for ell in range(1, 4):
                    shifted = tuple(
                        e + (ell if i == last_var else 0) for i, e in enumerate(u)
                    )
                    if shifted not in standard:
                        raise IdentityViolated(
                            4, "t_s-multiple of a standard monomial left the footprint"
                        )
    return {
        "socle_monomial": t_a,
        "lambdas": lambdas,
        "remainder_checked": len(lambdas),
        "special_form": special,
    }
