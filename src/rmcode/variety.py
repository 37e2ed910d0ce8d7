"""Projective point sets, their vanishing ideals, and Hilbert invariants.

The vanishing ideal is computed degree by degree from the kernel of the
evaluation map (exact linear algebra), then certified with Buchberger's
criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import LinearCode
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
    _divided,
    _next_layer,
    gb_certify,
    standard_monomials_upto,
)
from .linalg import rref, rref_transform
from .polyring import (
    GREVLEX,
    Poly,
    TermOrder,
    coefficient_matrix,
    monomial_coprime,
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
                if len(parts) != 2:
                    raise ParseError("vars line needs `vars s`", line=lineno)
                s = int(parts[1])
                if s < 1:
                    raise ParseError("vars must be positive", line=lineno)
            elif parts[0] == "order":
                perms = parts[2:]
                if len(parts) < 2 or len(perms) > 1 or not all(
                    t.startswith("perm=") for t in perms
                ):
                    raise ParseError(
                        "order line needs `order grevlex|glex [perm=i1,...,is]`",
                        line=lineno,
                    )
                perm = tuple(int(x) for x in perms[0][5:].split(",")) if perms else ()
                order = TermOrder(parts[1], perm)
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
    optionally is a ``LinearCode`` V of evaluation vectors already in the
    ideal (h*C_X(e-1) for (I(X), h)), with RREF basis G and pivot columns
    P.  Each evaluation v is reduced to v - v[P]*G, which is zero on P, and
    kept on the other coordinates; that map has kernel exactly V.  One RREF
    of the matrix whose columns are the reduced evaluations: its pivots are
    the standard monomials, and column j of ``nf`` holds the coefficients
    over them of the normal form of candidate j, because candidate j minus
    that combination evaluates into V.

    Returns (std, nf): the indices of the standard candidates and the
    (len(std), len(candidates)) matrix.
    """
    f = X.field
    red = X.eval_monomials(candidates)
    if fixed is not None:
        G, P = fixed.basis, np.array(fixed.pivots, dtype=np.int64)
        free = np.delete(np.arange(X.m), P)
        red = f.sub_arr(red[:, free], f.matmul(red[:, P], G[:, free]))
    nf, pivots = rref(f, red.T)
    return list(pivots), nf


def basis_elements(field, candidates, std, nf, leads):
    """The new basis elements of one interpolation step: u minus its normal
    form for every candidate u that is not standard and that no monomial of
    ``leads`` divides.  Their leading monomials are appended to ``leads``;
    the candidates share one degree, so no other candidate is a multiple
    of one of them."""
    out = []
    is_std = set(std)
    for j, (u, divided) in enumerate(zip(candidates, _divided(candidates, leads))):
        if j in is_std or divided:
            continue
        terms = {u: 1}
        for r, c in zip(std, nf[:, j]):
            if c:
                terms[candidates[r]] = field.neg(int(c))
        out.append(Poly(field, len(u), terms))
        leads.append(u)
    return out


def transform_step(X, candidates):
    """One degree d <= r0 of the interpolation: one RREF of
    [ev(candidates) | I], the candidates descending.

    The rows with a pivot among the points give the RREF basis of C_X(d)
    (their point part) and, in their transform part, each basis row as a
    combination of candidates.  The other rows are the RREF of the
    relations among the evaluations, the polynomials of I(X)_d over the
    candidates: each pivots at its leading monomial u, a candidate that is
    not standard, and is zero at every other such column, so it is
    u - NF(u) over the transform columns without a pivot, the standard
    candidates.  Being zero there too, the transform part of a basis row
    equal to e_c is the standard polynomial of degree d that is 1 at P_c
    and 0 at every other point.

    Returns (basis, std, relations, points, rows): the (H, m) RREF basis
    of C_X(d); the indices of the standard candidates, ascending; the
    relation rows over the candidates; the points c with e_c in C_X(d);
    and the transform rows of those basis rows.
    """
    m = X.m
    R, pivots = rref_transform(X.field, X.eval_monomials(candidates))
    k = sum(1 for c in pivots if c < m)
    basis = R[:k, :m].copy()  # not a view that keeps R alive
    leads = {c - m for c in pivots[k:]}
    std = [j for j in range(len(candidates)) if j not in leads]
    units = np.flatnonzero(np.count_nonzero(basis, axis=1) == 1)
    points = [pivots[r] for r in units]
    return basis, std, R[k:, m:], points, R[units, m:]


@dataclass(frozen=True)
class VanishingIdeal:
    """The certified reduced basis ``gb`` of I(X), with what its
    eliminations of degrees 0..r0 give besides: ``codes[d]`` is C_X(d)
    with its RREF basis, and ``separators[d]`` is (std, points, rows): the
    standard monomials of degree d, descending, and for each point P_c
    first separated in degree d, the coefficients over them of a standard
    polynomial that is nonzero at P_c only."""

    gb: GroebnerBasis
    codes: tuple
    separators: tuple


def vanishing_ideal(X, order=GREVLEX):
    """Reduced certified Groebner basis of the homogeneous vanishing ideal,
    with the codes and separators of its interpolation.

    Degree-by-degree interpolation: the candidates of degree d are the
    monomials above the standard monomials of degree d - 1 that no leading
    monomial divides.  Up to r0 each degree is one ``transform_step``,
    which gives the standard ones, the basis elements, C_X(d) and the
    points first separated in degree d; past r0, C_X(d) is all of F_q^m,
    and ``interpolation_step`` gives the standard candidates and the basis
    elements alone.  I(X) is generated in degrees <= r0 + 1, and a basis
    complete up to the largest degree of lcm(u, v) over non-coprime
    leading monomials u, v reduces every S-polynomial to zero, so the
    interpolation runs until it has passed both.
    """
    f = X.field
    s = X.s
    m = X.m
    order.resolved_perm(s)
    gens = []
    leads = []
    codes, separators = [], []
    separated = np.zeros(m, dtype=bool)
    r0 = None
    bound = 0  # the largest degree of an S-pair of the leads found so far
    d = -1
    accepted = None
    while r0 is None or d < max(r0 + 1, bound):
        d += 1
        if d > 4 * (m + s):  # unreachable for honest inputs; loud bug trap
            raise InternalInconsistency("interpolation failed to stabilize")
        candidates = _next_layer(accepted, s, leads)
        old = len(leads)
        if r0 is None:
            candidates.sort(key=order.key, reverse=True)
            basis, std, relations, points, rows = transform_step(X, candidates)
            for row in relations[::-1]:
                j = int(np.flatnonzero(row)[0])
                terms = {candidates[j]: 1}
                terms.update((candidates[c], row[c]) for c in reversed(std) if row[c])
                gens.append(Poly(f, s, terms))
                leads.append(candidates[j])
            new = [r for r, c in enumerate(points) if not separated[c]]
            fresh = [points[r] for r in new]
            separated[fresh] = True
            accepted = tuple(candidates[c] for c in std)
            codes.append(LinearCode(f, m, basis))
            separators.append((accepted, fresh, rows[new][:, std]))
        else:
            candidates.sort(key=order.key)
            std, nf = interpolation_step(X, candidates)
            gens += basis_elements(f, candidates, std, nf, leads)
            accepted = [candidates[c] for c in std]  # standard monomials of degree d
        for i in range(old, len(leads)):
            for v in leads[:i]:
                if not monomial_coprime(leads[i], v):
                    bound = max(bound, sum(monomial_lcm(leads[i], v)))
        if r0 is None and len(accepted) == m:
            r0 = d

    gb = GroebnerBasis(order, gens)
    if not gb_certify(gb):
        raise InternalInconsistency("the interpolated basis failed certification")
    if np.any(X.eval_polys(gens)):
        raise InternalInconsistency("basis element does not vanish on X")
    return VanishingIdeal(
        GroebnerBasis(order, gens, certified=True), tuple(codes), tuple(separators)
    )


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
