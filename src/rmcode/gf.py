"""Exact arithmetic in finite fields F_{p^k}.

Elements are stored as integer *codes* in ``range(q)``: the element with
coordinates ``(c_0, ..., c_{k-1})`` relative to the basis ``1, a, ..., a^{k-1}``
has code ``sum(c_i * p**i)``.  Prime-field arithmetic is plain modular
arithmetic on codes; extension fields are table driven (built once per field),
which also gives fast vectorized numpy operations for the linear-algebra and
enumeration kernels.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InternalInconsistency,
    NoModulusAvailable,
    NonPrimeP,
    ParseError,
    ReducibleModulus,
    Unsupported,
)

# Largest extension-field order for which arithmetic tables are built.
TABLE_LIMIT = 1024

# Every characteristic p is below this bound, so the product of two element
# codes stays below 2**62 and the int64 arithmetic `(a * b) % p` is exact;
# `Field.matmul` relies on it for its sums of such products.
PRIME_LIMIT = 2**31

# Every integer below 2**53 is a float64, so a float64 sum of nonnegative
# integers is exact, in any order of summation, while it stays below this.
FLOAT_EXACT = 2**53

# ``Field.matmul`` over F_{p^k} takes the digit-slice product once the inner
# dimension reaches this many times k, and one table product per inner index
# below it (the README gives the measured crossover).
SLICE_MIN_INNER = 2

# Canonical monic moduli for the small extension fields used throughout
# (ascending coefficients, degree-k entry = 1).  For every entry the basis
# root `a` itself has multiplicative order q-1: it generates the unit group.
BUILTIN_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
}


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# monic polynomials over F_p (coefficient tuples, ascending powers)


def _monic(code, p, k):
    """The monic degree-k polynomial whose lower coefficients are the base-p
    digits of ``code``."""
    return tuple(code // p**i % p for i in range(k)) + (1,)


def _poly_rem(f, g, p):
    """The remainder of f modulo the monic g over F_p, len(g) - 1 entries."""
    r, k = list(f), len(g) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            for j in range(k + 1):
                r[i - k + j] = (r[i - k + j] - c * g[j]) % p
    return r[:k]


def is_irreducible(modulus, p):
    """Whether the monic polynomial ``modulus`` of degree k is irreducible
    over F_p: no monic polynomial of degree 1..k//2 divides it."""
    k = len(modulus) - 1
    return all(
        any(_poly_rem(modulus, _monic(code, p, d), p))
        for d in range(1, k // 2 + 1)
        for code in range(p**d)
    )


def search_modulus(p, k):
    """Smallest (in code order) monic irreducible degree-k polynomial over F_p."""
    if p**k in BUILTIN_MODULI:
        return BUILTIN_MODULI[p**k]
    for code in range(p**k):
        mod = _monic(code, p, k)
        if is_irreducible(mod, p):
            return mod
    raise NoModulusAvailable(f"no irreducible polynomial of degree {k} over F_{p}")


def _mod_exact(x, p):
    """x mod p for a float64 array of integers in [0, FLOAT_EXACT): the
    quotient x / p is correctly rounded, so its floor is exact there."""
    return x - p * np.floor(x / p)


class Field:
    """An exact finite field F_q, q = p^k, acting on integer element codes."""

    def __init__(self, p, k=1, modulus=None):
        # before is_prime, whose trial division takes sqrt(p) steps
        if p >= PRIME_LIMIT:
            raise Unsupported(f"the characteristic must be below 2**31 (got {p})")
        if not is_prime(p):
            raise NonPrimeP(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.k = k
        self.q = p**k
        if k > 1 and self.q > TABLE_LIMIT:
            raise Unsupported(
                f"extension fields are table driven and limited to q <= {TABLE_LIMIT}"
            )
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {k} (got {modulus})"
                )
        if k == 1:
            # every monic linear modulus gives F_p with its codes
            self.modulus = (0, 1)
        else:
            if modulus is None:
                if self.q in BUILTIN_MODULI:
                    modulus = BUILTIN_MODULI[self.q]
                else:
                    raise NoModulusAvailable(
                        f"no built-in modulus for q={self.q}; pass one explicitly"
                    )
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._init_tables()

    # -- construction of arithmetic ----------------------------------------

    def _init_tables(self):
        """The arithmetic tables of an extension field; a prime field has
        none and stays modular.

        The code space is Z_p^k digitwise, so the q x q addition table is
        the sum of k broadcast p x p digit tables, each on the pair of axes
        of one digit, and negation is digitwise.  The product is Horner in
        a over the digits of x, and inverses are x^(q-2) by
        square-and-multiply on the code vector: O(q log q) gathers.
        """
        p, k, q = self.p, self.k, self.q
        if k == 1:
            return
        weights = p ** np.arange(k)
        codes = np.arange(q)
        digits = codes[:, None] // weights % p
        # a code reshaped to (p,) * k has its top digit first
        wrap = (np.arange(p)[:, None] + np.arange(p)) % p
        add = np.zeros((p,) * (2 * k), dtype=np.int64)
        for i, w in enumerate(weights):
            axes = [1] * (2 * k)
            axes[k - 1 - i] = axes[2 * k - 1 - i] = p
            add += (wrap * w).reshape(axes)
        self._add_t = add.reshape(q, q)
        self._neg_t = (p - digits) % p @ weights
        # code maps y -> a*y (shift the digits up, reduce the top digit by
        # the monic modulus) and y -> c*y for each c in F_p
        top = digits[:, -1:]
        shifted = np.concatenate([np.zeros_like(top), digits[:, :-1]], axis=1)
        times_a = (shifted - top * np.array(self.modulus[:k])) % p @ weights
        scaled = np.arange(p)[:, None, None] * digits % p @ weights
        # Horner in a over the digits of x: x*y = (..(x_{k-1} y) a + ..) a + x_0 y
        mul = scaled[digits[:, -1]]
        for i in range(k - 2, -1, -1):
            mul = self._add_t[times_a[mul], scaled[digits[:, i]]]
        self._mul_t = mul
        # the slice tables of ``_slice_matmul``: the digits of every code,
        # and [y, i, j] = digit j of a^i * y
        powers = np.empty((q, k), dtype=np.int64)
        powers[:, 0] = codes
        for i in range(1, k):
            powers[:, i] = times_a[powers[:, i - 1]]
        self._digits_f = digits.astype(np.float64)
        self._times_f = digits[powers].astype(np.float64)
        self._weights_f = weights.astype(np.float64)
        inv, base, e = np.ones(q, dtype=np.int64), codes, q - 2
        while e:
            if e & 1:
                inv = self._mul_t[inv, base]
            base = self._mul_t[base, base]
            e >>= 1
        self._inv_t = inv

    # -- scalar arithmetic on codes -----------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return int(self._add_t[a, b])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return int(self._neg_t[a])

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return int(self._mul_t[a, b])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(int(a), self.p - 2, self.p)
        return int(self._inv_t[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # -- vectorized arithmetic on numpy arrays of codes ----------------------

    def arr(self, data):
        return np.asarray(data, dtype=np.int64)

    def add_arr(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self._add_t[a, b]

    def sub_arr(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self.add_arr(a, self.neg_arr(b))

    def neg_arr(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self._neg_t[a]

    def mul_arr(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return self._mul_t[a, b]

    def sub_mul_arr(self, a, f, b):
        """a - f*b, broadcast.  Over F_p one reduction suffices: codes are
        below 2**31, so |a - f*b| < 2**62.  Over F_{p^k} f is negated
        before the table gathers, as it is the shortest operand in a pivot
        update (a column of factors)."""
        if self.k == 1:
            return (a - f * b) % self.p
        return self._add_t[a, self._mul_t[self._neg_t[f], b]]

    def matmul(self, a, b):
        """The exact field product a @ b of an (n, l) and an (l, c) matrix.

        Over F_p a product of two codes is below (p-1)**2 < 2**62, so
        int64 sums of up to (2**63 - 1) // (p-1)**2 of them are exact: the
        inner index runs in blocks of that length, each reduced mod p.
        p < PRIME_LIMIT keeps a block at 2 terms or more.  Over F_{p^k}
        the product runs on F_p digit slices (``_slice_matmul``) once
        l >= SLICE_MIN_INNER * k; below that each inner index adds one
        table product, which is cheaper than the slices' fixed costs.
        """
        a, b = self.arr(a), self.arr(b)
        if self.k == 1:
            p = self.p
            out = a[:, :0] @ b[:0]
            block = (2**63 - 1) // (p - 1) ** 2
            for i in range(0, a.shape[1], block):
                out = (out + (a[:, i : i + block] @ b[i : i + block]) % p) % p
            return out
        if a.shape[1] >= SLICE_MIN_INNER * self.k:
            return self._slice_matmul(a, b)
        out = a[:, :0] @ b[:0]
        for i in range(a.shape[1]):
            prod = self._mul_t[a[:, i, None], b[i]]
            out = self._add_t[out, prod] if i else prod
        return out

    def _slice_matmul(self, a, b):
        """a @ b over F_{p^k} as one float64 product over F_p.

        With alpha the basis root and a = sum_i a_i * alpha^i digitwise,
        a @ b = sum_i a_i @ (alpha^i * b): the k digit slices a_i of a
        against the digits of alpha^i * b, which folds the degrees k..2k-2 of the slice products
        by the monic modulus before the product is taken.  The float64
        sums have l*k terms below p**2 each, so they are exact, in any
        summation order, while l*k*(p-1)**2 < FLOAT_EXACT: the inner index
        runs in blocks of that length, each reduced mod p.
        """
        p, k = self.p, self.k
        (n, inner), c = a.shape, b.shape[1]
        # columns (r, i): digit i of a[:, r]; rows (r, i) and columns
        # (col, j): digit j of alpha^i * b[r, col]
        A = self._digits_f[a].reshape(n, inner * k)
        B = self._times_f[b].transpose(0, 2, 1, 3).reshape(inner * k, c * k)
        # the columns of (FLOAT_EXACT - 1) // (k * (p-1)**2) inner indices
        step = (FLOAT_EXACT - 1) // (k * (p - 1) ** 2) * k
        out = np.zeros((n, c * k))
        for i in range(0, inner * k, step):
            out += _mod_exact(A[:, i : i + step] @ B[i : i + step], p)
        return (_mod_exact(out, p).reshape(n, c, k) @ self._weights_f).astype(np.int64)

    # -- element codecs -------------------------------------------------------

    def coeffs_of(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    # literal grammar: integer for prime fields; whitespace-free sums of
    # `c`, `a`, `c*a^e` terms for extensions (e reduced by the modulus).
    _TERM = re.compile(r"^(?:(-?\d+)\*?)?(a)?(?:\^(\d+))?$")

    def parse_element(self, text):
        text = text.strip()
        if not text:
            raise ParseError("empty element literal")
        body = text.replace("-", "+-").lstrip("+")
        code = 0
        for raw in body.split("+"):
            if not raw:
                raise ParseError(f"bad element literal {text!r}")
            m = self._TERM.match(raw)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ParseError(f"bad element literal {text!r}")
            c = int(m.group(1)) if m.group(1) is not None else 1
            coef = c % self.p
            if m.group(2):
                e = int(m.group(3)) if m.group(3) is not None else 1
                if self.k == 1:
                    raise ParseError(f"{text!r}: no `a` in a prime field")
                term = self.mul(coef, self.pow_(self.p, e))  # code p == `a`
            else:
                if m.group(3) is not None:
                    raise ParseError(f"bad element literal {text!r}")
                term = coef
            code = self.add(code, term)
        return code

    def format_element(self, code, signed=None):
        """Render a code per the literal grammar (ascending powers of a).

        For odd prime fields, ``signed=True`` uses representatives in
        -(p-1)/2..(p-1)/2 (the polynomial-printing convention).
        """
        if self.k == 1:
            if signed and self.p > 2 and code > (self.p - 1) // 2:
                return str(code - self.p)
            return str(code)
        parts = []
        for e, c in enumerate(self.coeffs_of(code)):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                var = "a" if e == 1 else f"a^{e}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts) if parts else "0"

    # -- embeddings -----------------------------------------------------------

    def embedding_into(self, big):
        """Code map F_{p^k} -> F_{p^(k*e)} sending `a` to the smallest root
        of this field's modulus in the big field."""
        if big.p != self.p or big.k % self.k != 0:
            raise FieldMismatch("no embedding between these fields")
        if self.k == 1:
            return np.arange(self.q, dtype=np.int64)
        root = None
        for cand in range(big.q):
            acc = 0
            for c in reversed(self.modulus):
                acc = big.add(big.mul(acc, cand), c % big.p)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise InternalInconsistency(f"the modulus of {self} has no root in {big}")
        table = np.zeros(self.q, dtype=np.int64)
        for code in range(self.q):
            img = 0
            for c in reversed(self.coeffs_of(code)):
                img = big.add(big.mul(img, root), c)
            table[code] = img
        return table

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        parts = []
        for i in range(self.k, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return f"F_{self.q}({'+'.join(parts)})"
