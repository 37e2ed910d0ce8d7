"""Sparse multivariate polynomials over F_q and graded monomial orders.

Monomials are plain exponent tuples; a ``Poly`` maps exponent tuples to
nonzero coefficient codes of its field.  Only graded orders (GRevLex, GLex,
each with a variable permutation) are exposed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, ParseError, RingMismatch

# -- monomials ----------------------------------------------------------------


def monomial_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))

def monomial_divides(u, v):
    """True when u | v."""
    return all(a <= b for a, b in zip(u, v))

def monomial_div(v, u):
    """v / u, assuming u | v."""
    return tuple(b - a for a, b in zip(u, v))

def monomial_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))

def monomial_coprime(u, v):
    return all(a == 0 or b == 0 for a, b in zip(u, v))

def monomial_support(u):
    return tuple(i for i, e in enumerate(u) if e)


def coefficient_matrix(polys, monos):
    """The (len(polys), len(monos)) matrix of coefficient codes of the
    polynomials over the monomials ``monos``, which include every term."""
    index = {u: i for i, u in enumerate(monos)}
    out = np.zeros((len(polys), len(monos)), dtype=np.int64)
    for row, g in zip(out, polys):
        for u, c in g.terms.items():
            row[index[u]] = c
    return out


def monomials_of_degree(s, d):
    """All exponent tuples of length s and total degree d (generation order
    is not meaningful; sort with a TermOrder key)."""
    if s == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(s - 1, d - first):
            yield (first,) + rest


@dataclass(frozen=True)
class TermOrder:
    """A graded monomial order: total degree first, tie-break per kind on the
    permuted coordinates t_{perm[0]} > t_{perm[1]} > ... (perm is 1-based)."""

    kind: str = "grevlex"
    perm: tuple = ()
    # s -> the 0-based coordinates that ``key`` compares, in order; filled
    # on the first key of each variable count
    _compared: dict = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in ("grevlex", "glex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def resolved_perm(self, s):
        if not self.perm:
            return tuple(range(1, s + 1))
        if sorted(self.perm) != list(range(1, s + 1)):
            raise DimensionMismatch(
                f"perm {self.perm} is not a permutation of 1..{s}"
            )
        return self.perm

    def key(self, u):
        """Sort key: ascending key order is ascending in the monomial order."""
        idx = self._compared.get(len(u))
        if idx is None:
            perm = self.resolved_perm(len(u))
            if self.kind == "grevlex":
                perm = perm[::-1]
            idx = self._compared[len(u)] = tuple(i - 1 for i in perm)
        if self.kind == "glex":
            return (sum(u), tuple([u[i] for i in idx]))
        # grevlex: compare reversed permuted coordinates, negated
        return (sum(u), tuple([-u[i] for i in idx]))

    def compare(self, u, v):
        if len(u) != len(v):
            raise DimensionMismatch("monomials of different variable counts")
        ku, kv = self.key(u), self.key(v)
        return (ku > kv) - (ku < kv)

    def sorted_desc(self, monomials):
        return sorted(monomials, key=self.key, reverse=True)

    def descriptor(self, s):
        perm = self.resolved_perm(s)
        return {"kind": self.kind, "perm": list(perm)}


GREVLEX = TermOrder("grevlex")


# -- polynomials ----------------------------------------------------------------


class Poly:
    """A sparse polynomial: ``terms`` maps exponent tuples to nonzero codes."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for u, c in terms.items():
                if len(u) != nvars:
                    raise DimensionMismatch("exponent tuple of wrong length")
                c = int(c)
                if c:
                    self.terms[tuple(u)] = c

    # construction helpers

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def monomial(cls, field, nvars, u, code=1):
        return cls(field, nvars, {tuple(u): code})

    def _check_ring(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise RingMismatch("polynomials live in different rings")

    def is_zero(self):
        return not self.terms

    # arithmetic

    def __add__(self, other):
        self._check_ring(other)
        f = self.field
        out = dict(self.terms)
        for u, c in other.terms.items():
            nc = f.add(out.get(u, 0), c)
            if nc:
                out[u] = nc
            else:
                out.pop(u, None)
        return Poly(f, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly(f, self.nvars, {u: f.neg(c) for u, c in self.terms.items()})

    def scale(self, code):
        f = self.field
        if code == 0:
            return Poly.zero(f, self.nvars)
        return Poly(f, self.nvars, {u: f.mul(c, code) for u, c in self.terms.items()})

    def mul_term(self, u, code=1):
        f = self.field
        if code == 0:
            return Poly.zero(f, self.nvars)
        return Poly(
            f,
            self.nvars,
            {monomial_mul(v, u): f.mul(c, code) for v, c in self.terms.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # structure

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous/zero."""
        degs = {sum(u) for u in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def leading_monomial(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order):
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc))

    def coeff(self, u):
        return self.terms.get(tuple(u), 0)

    # text form

    def to_str(self, order=GREVLEX):
        f = self.field
        return join_terms(
            (*coefficient_text(f, self.terms[u]), format_monomial(u) if sum(u) else "")
            for u in order.sorted_desc(self.terms)
        )

    def __repr__(self):
        return self.to_str()


_VARTOK = re.compile(r"(t(\d+)|u)(?:\^(\d+))?")


def parse_poly(field, nvars, text):
    """Parse the polynomial grammar: +/- separated terms `c*t1^e1*...*ts^es`.

    The homogenizing variable `u` is accepted as an alias for the last
    variable.  Compound extension-field coefficients must be parenthesized.
    """
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty polynomial")
    if text[-1] in "+-":
        raise ParseError(f"trailing operator {text[-1]!r} in {text!r}")
    # split into signed terms at top level (outside parentheses)
    terms, depth, cur, sign = [], 0, "", 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0:
            if cur:
                terms.append((sign, cur))
                cur = ""
                sign = 1 if ch == "+" else -1
            else:
                sign = sign * (1 if ch == "+" else -1)
        else:
            cur += ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if cur:
        terms.append((sign, cur))
    if not terms:
        raise ParseError(f"no terms in {text!r}")

    out = Poly.zero(field, nvars)
    for sign, term in terms:
        if term[-1] == "*" or "**" in term:
            raise ParseError(f"dangling '*' in term {term!r} of {text!r}")
        coeff = 1
        expo = [0] * nvars
        # factor scan: (..) or bare coefficients and variable powers, *-separated
        rest = term
        while rest:
            if rest[0] == "(":
                close = rest.index(")")
                coeff = field.mul(coeff, field.parse_element(rest[1:close]))
                rest = rest[close + 1 :].lstrip("*")
                continue
            m = _VARTOK.match(rest)
            if m:
                idx = nvars - 1 if m.group(1) == "u" else int(m.group(2)) - 1
                if not 0 <= idx < nvars:
                    raise ParseError(f"variable {m.group(1)} out of range in {text!r}")
                e = int(m.group(3)) if m.group(3) else 1
                expo[idx] += e
                rest = rest[m.end() :].lstrip("*")
                continue
            # otherwise a bare coefficient literal up to the next '*'
            stop = rest.find("*")
            tok = rest if stop < 0 else rest[:stop]
            if not tok:
                raise ParseError(f"bad term {term!r} in {text!r}")
            coeff = field.mul(coeff, field.parse_element(tok))
            rest = rest[len(tok) :].lstrip("*")
        if sign < 0:
            coeff = field.neg(coeff)
        out = out + Poly.monomial(field, nvars, tuple(expo), coeff)
    return out


def coefficient_text(field, code):
    """(negative, text) of a coefficient as a polynomial prints it: the
    signed literal without its sign, parenthesized when it is a sum."""
    cs = field.format_element(code, signed=True)
    neg = cs.startswith("-")
    if neg:
        cs = cs[1:]
    if "+" in cs or "-" in cs:
        cs = f"({cs})"
    return neg, cs


def join_terms(terms):
    """The text of a polynomial from its terms (negative, coefficient text,
    monomial text), leading term first; the monomial text of 1 is empty."""
    parts = []
    for neg, cs, mono in terms:
        body = (mono if cs == "1" else f"{cs}*{mono}") if mono else cs
        parts.append(("-" if neg else "+" if parts else "") + body)
    return "".join(parts) or "0"


def format_monomial(u):
    body = "*".join(
        f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(u) if e
    )
    return body or "1"


def parse_monomial(nvars, text):
    text = text.replace(" ", "")
    expo = [0] * nvars
    if text == "1":
        return tuple(expo)
    for factor in text.split("*"):
        m = _VARTOK.fullmatch(factor)
        if not m:
            raise ParseError(f"{text!r} is not a monomial")
        idx = nvars - 1 if m.group(1) == "u" else int(m.group(2)) - 1
        if not 0 <= idx < nvars:
            raise ParseError(f"variable {m.group(1)} out of range in {text!r}")
        expo[idx] += int(m.group(3)) if m.group(3) else 1
    return tuple(expo)
