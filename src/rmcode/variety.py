"""Projective point sets, their vanishing ideals, and Hilbert invariants.

The vanishing ideal is computed degree by degree from the kernel of the
evaluation map (exact linear algebra), then certified with Buchberger's
criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    InternalInconsistency,
    ParseError,
    TooFewPoints,
    ZeroPoint,
)
from .gf import Field
from .groebner import (
    GroebnerBasis,
    _next_layer,
    gb_certify,
    standard_monomials_upto,
)
from .linalg import rref
from .polyring import (
    GREVLEX,
    Poly,
    TermOrder,
    coefficient_matrix,
    monomial_coprime,
    monomial_divides,
    monomial_lcm,
)


class PointSet:
    """Distinct points of P^{s-1} over a finite field.

    ``coords`` is an (m, s) array of element codes, one representative per
    point; with ``canonicalize`` each representative has its last nonzero
    coordinate scaled to 1.
    """

    def __init__(self, field, coords, canonicalize=True, dedup=False):
        coords = field.arr(coords)
        if coords.ndim != 2:
            raise DimensionMismatch("coordinates must form an (m, s) array")
        rows = []
        seen = {}
        for row in coords:
            row = tuple(int(x) for x in row)
            if all(x == 0 for x in row):
                raise ZeroPoint("the zero vector defines no projective point")
            key = _canonical_row(field, row)
            if key in seen:
                if dedup:
                    continue
                raise DuplicatePoint(f"projectively repeated point {list(row)}")
            seen[key] = True
            rows.append(key if canonicalize else row)
        if len(rows) < 2:
            raise TooFewPoints(f"need at least 2 points, got {len(rows)}")
        self.field = field
        self.coords = field.arr(rows)
        self.s = self.coords.shape[1]

    @property
    def m(self):
        return self.coords.shape[0]

    def lift(self, big):
        """Coordinatewise image in an extension field."""
        table = self.field.embedding_into(big)
        return PointSet(big, table[self.coords], canonicalize=False)

    # evaluation helpers ----------------------------------------------------

    def eval_monomials(self, monomials):
        """Evaluation matrix: one row per monomial, one column per point,
        built by one gather of the powers of each coordinate."""
        f = self.field
        E = np.array(monomials, dtype=np.int64).reshape(len(monomials), self.s)
        rows = np.ones((len(monomials), self.m), dtype=np.int64)
        for j in range(self.s):
            pows = [np.ones(self.m, dtype=np.int64)]
            for _ in range(int(E[:, j].max(initial=0))):
                pows.append(f.mul_arr(pows[-1], self.coords[:, j]))
            rows = f.mul_arr(rows, np.array(pows)[E[:, j]])
        return rows

    def eval_polys(self, polys):
        """The (len(polys), m) matrix of values f(P_j): one product of the
        polynomials' coefficient matrix with the evaluations of the
        monomials they use."""
        monos = sorted({u for g in polys for u in g.terms})
        coeffs = coefficient_matrix(polys, monos)
        return self.field.matmul(coeffs, self.eval_monomials(monos))

    def __repr__(self):
        return f"PointSet(q={self.field.q}, s={self.s}, m={self.m})"


def _canonical_row(field, row):
    last = max(i for i, x in enumerate(row) if x)
    inv = field.inv(row[last])
    return tuple(field.mul(x, inv) for x in row)


# -- generators ------------------------------------------------------------------


def points_full_projective(s, field):
    """All points of P^{s-1}(F_q), canonical representatives."""
    rows = []
    for j in range(s - 1, -1, -1):
        for prefix in itertools.product(range(field.q), repeat=j):
            rows.append(list(prefix) + [1] + [0] * (s - 1 - j))
    return PointSet(field, rows, canonicalize=False)


def points_torus(s, field):
    """The projective torus: all-nonzero coordinates, last scaled to 1."""
    nz = [c for c in range(1, field.q)]
    rows = [list(prefix) + [1] for prefix in itertools.product(nz, repeat=s - 1)]
    return PointSet(field, rows, canonicalize=False)


def points_parameterized(vs, n, field):
    """The algebraic toric set of the integer exponent vectors v_1..v_s:
    evaluate (y^{v_1}, ..., y^{v_s}) over all y in (K^*)^n and deduplicate."""
    f = field
    s = len(vs)
    if any(len(v) != n for v in vs):
        raise DimensionMismatch("every exponent vector must have length n")
    rows = []
    for x in itertools.product(range(1, f.q), repeat=n):
        row = []
        for v in vs:
            val = 1
            for xj, e in zip(x, v):
                val = f.mul(val, f.pow_(xj, e))
            row.append(val)
        rows.append(row)
    return PointSet(f, rows, canonicalize=True, dedup=True)


def projective_closure(field, affine_rows):
    """[X, 1]: append 1 as the LAST coordinate of each affine point."""
    rows = [list(r) + [1] for r in affine_rows]
    return PointSet(field, rows, canonicalize=False)


# -- points file format -----------------------------------------------------------


@dataclass
class ParsedPoints:
    field: Field
    s: int
    rows: list
    order: TermOrder | None


def parse_points_text(text):
    """Parse the points file format.

    Line 1: ``field p k [m_0 ... m_k]``; line 2: ``vars s``; optional
    ``order grevlex|glex perm=i1,...,is``; then one point per line as
    whitespace-separated element literals.  ``#`` starts a comment.  Each
    header line appears at most once, before the first point.
    """
    field = None
    s = None
    order = None
    rows = []
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] in ("field", "vars", "order"):
                if rows:
                    raise ParseError(
                        f"`{parts[0]}` line after the point rows", line=lineno
                    )
                if parts[0] in headers:
                    raise ParseError(f"repeated `{parts[0]}` line", line=lineno)
                headers.add(parts[0])
            if parts[0] == "field":
                if len(parts) < 3:
                    raise ParseError("field line needs `field p k`", line=lineno)
                p, k = int(parts[1]), int(parts[2])
                modulus = [int(x) for x in parts[3:]] or None
                field = Field(p, k, modulus)
            elif parts[0] == "vars":
                if len(parts) < 2:
                    raise ParseError("vars line needs `vars s`", line=lineno)
                s = int(parts[1])
                if s < 1:
                    raise ParseError("vars must be positive", line=lineno)
            elif parts[0] == "order":
                if len(parts) < 2:
                    raise ParseError(
                        "order line needs `order grevlex|glex`", line=lineno
                    )
                kind = parts[1]
                perm = ()
                for extra in parts[2:]:
                    if extra.startswith("perm="):
                        perm = tuple(int(x) for x in extra[5:].split(","))
                order = TermOrder(kind, perm)
            else:
                if field is None or s is None:
                    raise ParseError(
                        "field/vars must precede point rows", line=lineno
                    )
                if len(parts) != s:
                    raise ParseError(
                        f"expected {s} coordinates, got {len(parts)}", line=lineno
                    )
                rows.append([field.parse_element(tok) for tok in parts])
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), line=lineno) from exc
    if field is None:
        raise ParseError("missing `field` line")
    if s is None:
        raise ParseError("missing `vars` line")
    if not rows:
        raise ParseError("no points given")
    if order is not None:
        order.resolved_perm(s)
    return ParsedPoints(field, s, rows, order)


def points_parse(text, canonicalize=True):
    parsed = parse_points_text(text)
    ps = PointSet(parsed.field, parsed.rows, canonicalize=canonicalize)
    return ps, parsed.order


def format_points(field, s, rows, order=None, header=()):
    lines = [f"# {h}" for h in header]
    if field.k == 1:
        lines.append(f"field {field.p} 1")
    else:
        lines.append(
            f"field {field.p} {field.k} " + " ".join(str(c) for c in field.modulus)
        )
    lines.append(f"vars {s}")
    if order is not None:
        perm = order.resolved_perm(s)
        lines.append(f"order {order.kind} perm=" + ",".join(str(i) for i in perm))
    for row in rows:
        lines.append(" ".join(field.format_element(int(x)) for x in row))
    return "\n".join(lines) + "\n"


# -- vanishing ideal --------------------------------------------------------------


def interpolation_step(X, candidates, fixed=None):
    """One degree of the interpolation on the evaluation map of X.

    ``candidates`` are monomials of one degree in ascending order; ``fixed``
    optionally is (G, P): the RREF basis and the pivot columns of a
    subspace V of evaluation vectors already in the ideal (h*C_X(e-1) for
    (I(X), h)).  Each evaluation v is reduced to v - v[P]*G, which is zero
    on P, and kept on the other coordinates; that map has kernel exactly V.
    One RREF of the matrix whose columns are the reduced evaluations: its
    pivots are the standard monomials, and column j of ``nf`` holds the
    coefficients over them of the normal form of candidate j, because
    candidate j minus that combination evaluates into V.

    Returns (ev, std, nf, red): the candidates' evaluation rows, the
    indices of the standard ones, the (len(std), len(candidates)) matrix,
    and the reduced evaluation rows, on the coordinates off P.
    """
    f = X.field
    ev = red = X.eval_monomials(candidates)
    if fixed is not None:
        G, P = fixed
        free = np.delete(np.arange(X.m), P)
        red = f.sub_arr(ev[:, free], f.matmul(ev[:, P], G[:, free]))
    nf, pivots = rref(f, red.T)
    return ev, list(pivots), nf, red


def basis_elements(field, candidates, std, nf, leads):
    """The new basis elements of one interpolation step: u minus its normal
    form for every candidate u that is not standard and that no monomial of
    ``leads`` divides.  Their leading monomials are appended to ``leads``."""
    out = []
    is_std = set(std)
    for j, u in enumerate(candidates):
        if j in is_std or any(monomial_divides(v, u) for v in leads):
            continue
        terms = {u: 1}
        for r, c in zip(std, nf[:, j]):
            if c:
                terms[candidates[r]] = field.neg(int(c))
        out.append(Poly(field, len(u), terms))
        leads.append(u)
    return out


def vanishing_ideal(X, order=GREVLEX):
    """Reduced certified Groebner basis of the homogeneous vanishing ideal.

    Degree-by-degree interpolation: the candidates of degree d are the
    monomials above the standard monomials of degree d - 1 that no leading
    monomial divides, and ``interpolation_step`` gives the standard ones and
    the basis elements.  I(X) is generated in degrees <= r0 + 1, and a
    basis complete up to the largest degree of lcm(u, v) over non-coprime
    leading monomials u, v reduces every S-polynomial to zero, so the
    interpolation runs until it has passed both.
    """
    f = X.field
    s = X.s
    m = X.m
    order.resolved_perm(s)
    gens = []
    leads = []
    r0 = None
    bound = 0  # the largest degree of an S-pair of the leads found so far
    d = 0
    accepted = _next_layer(None, s, leads)
    while r0 is None or d < max(r0 + 1, bound):
        d += 1
        if d > 4 * (m + s):  # unreachable for honest inputs; loud bug trap
            raise InternalInconsistency("interpolation failed to stabilize")
        candidates = sorted(_next_layer(accepted, s, leads), key=order.key)
        _, std, nf, _ = interpolation_step(X, candidates)
        old = len(leads)
        gens += basis_elements(f, candidates, std, nf, leads)
        for i in range(old, len(leads)):
            for v in leads[:i]:
                if not monomial_coprime(leads[i], v):
                    bound = max(bound, sum(monomial_lcm(leads[i], v)))
        accepted = [candidates[c] for c in std]  # standard monomials of degree d
        if r0 is None and len(accepted) == m:
            r0 = d

    gb = GroebnerBasis(order, gens)
    if not gb_certify(gb):
        raise InternalInconsistency("the interpolated basis failed certification")
    if np.any(X.eval_polys(gens)):
        raise InternalInconsistency("basis element does not vanish on X")
    return GroebnerBasis(order, gens, certified=True)


# -- Hilbert data -----------------------------------------------------------------


@dataclass
class HilbertData:
    H: tuple           # H(0), ..., H(r0)
    h_vector: tuple
    r0: int
    degree: int        # = m
    a_invariant: int
    symmetric: bool

    def value(self, d):
        """H_X(d) for every integer d: 0 below 0, m from r0 on."""
        if d < 0:
            return 0
        return self.H[d] if d <= self.r0 else self.degree

    def as_dict(self):
        return {
            "H": list(self.H),
            "h_vector": list(self.h_vector),
            "r0": self.r0,
            "degree": self.degree,
            "a_invariant": self.a_invariant,
            "symmetric_h_vector": self.symmetric,
        }


def hilbert_data(gb, m, nvars=None):
    """Hilbert function, regularity index and h-vector from standard-monomial
    counts of a certified vanishing-ideal basis."""
    nv = nvars if nvars is not None else gb.nvars
    H = [1]
    d = 0
    while H[-1] != m:
        d += 1
        count = len(standard_monomials_upto(gb, nv, d)[d])
        if count <= H[-1] and count != m:
            raise InternalInconsistency(
                "Hilbert function must strictly increase until it reaches m"
            )
        H.append(count)
        if d > 8 * (m + nv):
            raise InternalInconsistency("Hilbert function failed to reach m")
    r0 = d
    h = tuple(H[i] - (H[i - 1] if i else 0) for i in range(r0 + 1))
    symmetric = all(h[i] == h[r0 - i] for i in range(r0 + 1))
    return HilbertData(tuple(H), h, r0, m, r0 - 1, symmetric)


def symmetry_equiv_check(hd):
    """h-vector symmetry, re-derived from H-products, with the equivalence
    between the two formulations asserted."""
    r0, m = hd.r0, hd.degree
    via_sums = all(hd.value(d) + hd.value(r0 - d - 1) == m for d in range(r0 + 1))
    if via_sums != hd.symmetric:
        raise InternalInconsistency(
            "h-vector symmetry disagrees with the Hilbert-sum formulation"
        )
    return hd.symmetric
