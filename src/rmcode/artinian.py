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
    NotArtinian,
    NotGorenstein,
    NotRegular,
)
from .gf import Field
from .groebner import (
    GroebnerBasis,
    buchberger,
    gb_certify,
    normal_form,
    standard_monomials_upto,
)
from .polyring import Poly, monomial_support


@dataclass
class ArtinianClassification:
    h: Poly
    extension_degree: int
    J_basis: GroebnerBasis
    socle: list              # (degree, standard polynomial) pairs
    type_: int
    level: bool
    gorenstein: bool
    s_number: int
    reg_check: bool
    socle_monomial: tuple | None

    @property
    def socle_degrees(self):
        return sorted({d for d, _ in self.socle})

    def as_dict(self, order):
        field = self.h.field
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
            else _mono_str(self.socle_monomial),
        }


def _mono_str(u):
    from .polyring import format_monomial

    return format_monomial(u)


def _linear_form(field, s, coeffs):
    return Poly(field, s, {tuple(int(i == j) for j in range(s)): int(c)
                           for i, c in enumerate(coeffs) if c})


def _avoids_all(X, coeffs):
    f = X.field
    vals = np.zeros(X.m, dtype=np.int64)
    for j, c in enumerate(coeffs):
        if c:
            vals = f.add_arr(vals, f.mul_arr(int(c), X.coords[:, j]))
    return not np.any(vals == 0)


def _first_regular_form(X):
    """The first linear form in preference order that vanishes at no point
    of X, as a coefficient tuple, or None.

    The order: t_s, then the other single variables, then the forms with
    at least two nonzero coefficients, first nonzero coefficient 1, by the
    position of that 1 and then lexicographically in the rest.  A
    depth-first search visits the rest in that order and cuts a prefix as
    soon as a point whose later coordinates are all 0 evaluates to 0: no
    completion of the prefix avoids that point.
    """
    f, s, P = X.field, X.s, X.coords
    for j in (s - 1, *range(s - 1)):
        single = tuple(int(i == j) for i in range(s))
        if _avoids_all(X, single):
            return single
    # settled[j]: the points whose coordinates after j are all 0
    settled = [~np.any(P[:, j + 1 :], axis=1) for j in range(s)]

    def search(coeffs, vals):
        j = len(coeffs) - 1
        if np.any(vals[settled[j]] == 0):
            return None
        if j == s - 1:
            # every single variable failed above, so this has two nonzeros
            return tuple(coeffs)
        for c in range(f.q):
            nxt = f.add_arr(vals, f.mul_arr(c, P[:, j + 1])) if c else vals
            hit = search(coeffs + [c], nxt)
            if hit is not None:
                return hit
        return None

    for lead in range(s):
        hit = search([0] * lead + [1], P[:, lead])
        if hit is not None:
            return hit
    return None


def find_regular_linear_form(X):
    """A degree-1 form avoiding every point of X, extending scalars if F_q
    admits none.  Returns (h, extension_degree, X_over_h_field)."""
    e, workX = 1, X
    while True:
        coeffs = _first_regular_form(workX)
        if coeffs is not None:
            return _linear_form(workX.field, X.s, coeffs), e, workX
        e += 1
        workX = X.lift(_extension_field(X.field, e))


def _extension_field(base, e):
    from .gf import search_modulus

    p, k = base.p, base.k * e
    return Field(p, k, search_modulus(p, k))


def lift_basis(gb, X, bigX):
    """Coefficientwise image of a Groebner basis under the scalar extension
    (the GB property is preserved by flat base change)."""
    table = X.field.embedding_into(bigX.field)
    gens = [g.map_field(bigX.field, table) for g in gb.gens]
    return GroebnerBasis(gb.order, gens, certified=gb.certified)


def artinian_reduce(gb, h, X):
    """Certified basis of J = (I, h) for a regular linear form h.

    When h is the least variable under GRevLex the basis is G plus that
    variable (certified directly); otherwise Buchberger runs on G + {h}.
    """
    f = h.field
    vals = X.eval_poly(h)
    if np.any(vals == 0):
        raise NotRegular(f"{h.to_str(gb.order)} vanishes at a point of X")
    s = X.s
    order = gb.order
    perm = order.resolved_perm(s)
    last_var = perm[-1] - 1
    ts_mono = tuple(int(i == last_var) for i in range(s))
    gens = gb.gens + (h,)
    if (
        order.kind == "grevlex"
        and h.terms == {ts_mono: 1}
        and all(u[last_var] == 0 for u in gb.leading_monomials())
    ):
        if not gb_certify(GroebnerBasis(order, gens)):
            raise InternalInconsistency(
                "G + {t_s} failed certification although t_s avoids all leads"
            )
        return GroebnerBasis(order, gens, certified=True)
    return buchberger(gens, order)


def _socle_basis(J, nvars):
    """Per-degree socle of the Artinian quotient S/J.

    Soc_e is the joint kernel of every multiplication-by-variable map
    K Delta(J)_e -> K Delta(J)_{e+1}.
    """
    f = J.field
    leads = J.leading_monomials()
    bound = 0  # no standard monomial has degree above sum_i (a_i - 1)
    for i in range(nvars):
        pure = [
            u[i] for u in leads if all(e == 0 for j, e in enumerate(u) if j != i)
        ]
        if not any(pure):
            raise NotArtinian(f"no pure power of t{i + 1} in the initial ideal")
        bound += min(a for a in pure if a) - 1
    per_degree = standard_monomials_upto(J, nvars, bound + 1)
    top = max((d for d, layer in enumerate(per_degree) if layer), default=-1)
    if top < 0:
        raise NotArtinian("unit ideal")

    out = []
    for e in range(top + 1):
        basis_e = per_degree[e]
        basis_e1 = per_degree[e + 1] if e + 1 <= top else []
        index_e1 = {u: i for i, u in enumerate(basis_e1)}
        rows = []
        for var in range(nvars):
            shift = tuple(int(i == var) for i in range(nvars))
            M = np.zeros((len(basis_e1), len(basis_e)), dtype=np.int64)
            for col, u in enumerate(basis_e):
                prod = Poly.monomial(f, nvars, tuple(a + b for a, b in zip(u, shift)))
                rem = normal_form(prod, J)
                for w, c in rem.terms.items():
                    M[index_e1[w], col] = c
            rows.append(M)
        stacked = np.concatenate(rows, axis=0) if rows else np.zeros((0, len(basis_e)))
        if stacked.shape[0] == 0:
            kernel = np.eye(len(basis_e), dtype=np.int64)
        else:
            kernel = linalg.nullspace(f, stacked)
        for vec in kernel:
            terms = {u: int(c) for u, c in zip(basis_e, vec) if c}
            out.append((e, Poly(f, nvars, terms)))
    return out, top, per_degree


def socle(J, nvars):
    """Socle basis, type, level/Gorenstein flags and s-number of S/J."""
    soc, top, _ = _socle_basis(J, nvars)
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
    X, gb, hd = A.X, A.gb, A.hd
    if h is not None:
        ext_degree, workX, work_gb = 1, X, gb
        hpoly = h
    else:
        hpoly, ext_degree, workX = find_regular_linear_form(X)
        work_gb = gb if ext_degree == 1 else lift_basis(gb, X, workX)
    J = artinian_reduce(work_gb, hpoly, workX)
    soc, top, type_, level, gorenstein, s_number = socle(J, workX.s)
    reg_check = top == hd.r0
    if not reg_check:
        raise InternalInconsistency(
            f"largest nonzero degree of S/J is {top}, expected r0 = {hd.r0}"
        )
    # Hilbert values of the reduction must be the h-vector
    per_degree = standard_monomials_upto(J, workX.s, top)
    dims = tuple(len(per_degree[d]) for d in range(top + 1))
    if dims != hd.h_vector:
        raise InternalInconsistency(
            f"reduction Hilbert values {dims} differ from the h-vector {hd.h_vector}"
        )
    socle_monomial = None
    if gorenstein:
        top_std = per_degree[hd.r0]
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
        hpoly,
        ext_degree,
        J,
        soc,
        type_,
        level,
        gorenstein,
        s_number,
        reg_check,
        socle_monomial,
    )


def verify_socle_identities(A, cls):
    """The socle-indicator identities of a Gorenstein classification of the
    ``Analysis`` A.

    (1) the remainder of every f_i modulo J is a nonzero multiple of the top
    standard monomial; (2) every deg f_i equals r0; (3) under GRevLex with
    h = t_s and all last coordinates 1: the top monomial is essential and
    t_s-free, the multiple is lc(f_i), and f_i minus it is divisible by t_s;
    (4) multiplying standard monomials by powers of t_s stays standard.
    """
    if not cls.gorenstein:
        raise NotGorenstein("socle identities require a Gorenstein ideal")
    X, gb, isx = A.X, A.gb, A.isx
    r0 = A.hd.r0
    t_a = cls.socle_monomial
    J = cls.J_basis
    fstar = J.field
    lambdas = []
    fs = isx.fs
    if cls.extension_degree > 1:
        table = X.field.embedding_into(fstar)
        fs = [g.map_field(fstar, table) for g in fs]
    for i, fi in enumerate(fs):
        rem = normal_form(fi, J)
        if set(rem.terms) != {t_a}:
            raise IdentityViolated(1, f"remainder of f_{i + 1} is not a t^a multiple")
        lambdas.append(rem.terms[t_a])
        if isx.degrees[i] != r0:
            raise IdentityViolated(2, f"deg f_{i + 1} = {isx.degrees[i]} != r0 = {r0}")

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
        for i, fi in enumerate(isx.fs):
            if lambdas[i] != fi.leading_coeff(order):
                raise IdentityViolated(3, f"lambda_{i + 1} != lc(f_{i + 1})")
            rest = fi - Poly.monomial(fi.field, s, t_a, lambdas[i])
            if any(u[last_var] == 0 for u in rest.terms):
                raise IdentityViolated(
                    3, f"f_{i + 1} - lambda*t^a must be divisible by t_s"
                )
        # multiplication by t_s preserves standardness
        init = gb.initial_ideal()
        for layer in standard_monomials_upto(gb, s, r0):
            for u in layer:
                for ell in range(1, 4):
                    shifted = tuple(
                        e + (ell if i == last_var else 0) for i, e in enumerate(u)
                    )
                    if init.contains(shifted):
                        raise IdentityViolated(
                            4, "t_s-multiple of a standard monomial left the footprint"
                        )
    return {
        "socle_monomial": t_a,
        "lambdas": lambdas,
        "remainder_checked": len(fs),
        "special_form": special,
    }
