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
    NoModulusAvailable,
    NonPrimeP,
    ParseError,
    ReducibleModulus,
    Unsupported,
)

# Largest extension-field order for which multiplication tables are built.
TABLE_LIMIT = 1024

# Every characteristic p is below this bound, so the product of two element
# codes stays below 2**62 and the int64 arithmetic `(a * b) % p` is exact.
PRIME_LIMIT = 2**31

# Canonical monic moduli for the small extension fields used throughout
# (ascending coefficients, degree-k entry = 1).  For every entry the basis
# root `a` itself has multiplicative order q-1, so the designated generator
# always prints as `a`.
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


def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, ascending powers)


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mulmod(f, g, mod, p):
    k = len(mod) - 1
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    # reduce by the monic modulus
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return out[:k] + [0] * (k - len(out)) if len(out) < k else out[:k]


def _poly_powmod_x(e, mod, p):
    """x^e modulo the monic polynomial `mod` over F_p."""
    k = len(mod) - 1
    result = [1] + [0] * (k - 1)
    base = ([0, 1] + [0] * (k - 2))[:k] if k >= 2 else [(-mod[0]) % p]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(f, g, p):
    f, g = list(_poly_trim(tuple(f))), list(_poly_trim(tuple(g)))
    while g:
        inv = pow(g[-1], p - 2, p)
        g_monic = [(c * inv) % p for c in g]
        # f mod g_monic
        f = list(f)
        while len(f) >= len(g_monic) and f:
            c = f[-1]
            if c:
                shift = len(f) - len(g_monic)
                for j, b in enumerate(g_monic):
                    f[shift + j] = (f[shift + j] - c * b) % p
            f = list(_poly_trim(tuple(f)))
            if not f:
                break
        f, g = g_monic, f
    return tuple(f)


def is_irreducible(modulus, p):
    """Rabin test for a monic polynomial over F_p (degree-2/3 root check first)."""
    mod = list(modulus)
    k = len(mod) - 1
    if k == 1:
        return True
    if mod[0] == 0:  # divisible by x
        return False
    if k <= 3:
        # quadratics and cubics are irreducible iff they have no root
        return all(
            sum(c * pow(x, i, p) for i, c in enumerate(mod)) % p != 0 for x in range(p)
        )
    # x^{p^k} == x mod f, and gcd(x^{p^{k/d}} - x, f) = 1 for prime d | k
    xp = _poly_powmod_x(p**k, mod, p)
    if _poly_trim(tuple(xp)) != (0, 1):
        return False
    for d in prime_factors(k):
        sub = list(_poly_powmod_x(p ** (k // d), mod, p))
        if len(sub) < 2:
            sub += [0] * (2 - len(sub))
        sub[1] = (sub[1] - 1) % p
        if len(_poly_gcd(sub, mod, p)) > 1:
            return False
    return True


def search_modulus(p, k):
    """Smallest (in code order) monic irreducible degree-k polynomial over F_p."""
    if p**k in BUILTIN_MODULI:
        return BUILTIN_MODULI[p**k]
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        mod = tuple(coeffs) + (1,)
        if is_irreducible(mod, p):
            return mod
    raise NoModulusAvailable(f"no irreducible polynomial of degree {k} over F_{p}")


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
        if k == 1:
            self.modulus = (0, 1)
        else:
            if modulus is None:
                if self.q in BUILTIN_MODULI:
                    modulus = BUILTIN_MODULI[self.q]
                else:
                    raise NoModulusAvailable(
                        f"no built-in modulus for q={self.q}; pass one explicitly"
                    )
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {k} (got {modulus})"
                )
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        if k > 1 and self.q > TABLE_LIMIT:
            raise Unsupported(
                f"extension fields are table driven and limited to q <= {TABLE_LIMIT}"
            )
        self._init_tables()
        self._unit_primes = prime_factors(self.q - 1)
        self.generator = self._find_primitive()

    # -- construction of arithmetic ----------------------------------------

    def _init_tables(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._add_t = self._mul_t = None
            self._inv_t = None
            if p <= TABLE_LIMIT:
                inv = np.zeros(q, dtype=np.int64)
                for x in range(1, p):
                    inv[x] = pow(x, p - 2, p)
                self._inv_t = inv
            return
        dt = np.int16 if q < 2**15 else np.int32
        codes = np.arange(q)
        digits = np.zeros((q, k), dtype=np.int64)
        c = codes.copy()
        for i in range(k):
            digits[:, i] = c % p
            c //= p
        # addition: digitwise mod p
        add_digits = (digits[:, None, :] + digits[None, :, :]) % p
        weights = p ** np.arange(k)
        self._add_t = (add_digits * weights).sum(axis=2).astype(dt)
        # multiplication via coefficient-tuple products reduced by the modulus
        mul = np.zeros((q, q), dtype=dt)
        tuples = [tuple(digits[i]) for i in range(q)]
        for i in range(q):
            fi = list(tuples[i])
            for j in range(i, q):
                prod = _poly_mulmod(fi, list(tuples[j]), list(self.modulus), p)
                code = sum(int(c) * p**e for e, c in enumerate(prod))
                mul[i, j] = code
                mul[j, i] = code
        self._mul_t = mul
        inv = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            for y in range(1, q):
                if mul[x, y] == 1:
                    inv[x] = y
                    break
        self._inv_t = inv

    def _order_of(self, code):
        # the order divides q-1; strip each prime l while code^(n/l) = 1, so
        # a primitive code costs one square-and-multiply power per prime
        if code == 0:
            return 0
        n = self.q - 1
        for ell in self._unit_primes:
            while n % ell == 0 and self.pow_(code, n // ell) == 1:
                n //= ell
        return n

    def _find_primitive(self):
        for code in range(1, self.q):
            if self._order_of(code) == self.q - 1:
                return code
        raise AssertionError("no primitive element found")  # unreachable

    # -- scalar arithmetic on codes -----------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return int(self._add_t[a, b])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        p, k = self.p, self.k
        out, w = 0, 1
        for _ in range(k):
            out += ((-(a % p)) % p) * w
            a //= p
            w *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return int(self._mul_t[a, b])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1 and self._inv_t is None:
            return pow(a, self.p - 2, self.p)
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
        return self._add_t[a, b].astype(np.int64)

    def sub_arr(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self.add_arr(a, self.neg_arr(b))

    def neg_arr(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self._neg_table()[a]

    def _neg_table(self):
        if not hasattr(self, "_neg_t"):
            self._neg_t = np.array([self.neg(x) for x in range(self.q)], dtype=np.int64)
        return self._neg_t

    def mul_arr(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return self._mul_t[a, b].astype(np.int64)

    def pow_arr(self, a, e):
        out = np.ones_like(np.asarray(a))
        base = np.asarray(a)
        while e:
            if e & 1:
                out = self.mul_arr(out, base)
            base = self.mul_arr(base, base)
            e >>= 1
        return out

    # -- element codecs -------------------------------------------------------

    def coeffs_of(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs):
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        return sum((int(c) % self.p) * self.p**i for i, c in enumerate(coeffs))

    def from_int(self, n):
        """The constant n*1 (an F_p multiple of the identity)."""
        return n % self.p

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
        assert root is not None, "modulus must split in the extension"
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


class FqElement:
    """A field element: a thin, immutable wrapper over (field, code)."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", int(code))

    def __setattr__(self, *_):
        raise AttributeError("FqElement is immutable")

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.code)

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field != self.field:
                raise FieldMismatch("operands live in different fields")
            return other.code
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        if c == 0:
            raise DivisionByZero("division by zero")
        return FqElement(self.field, self.field.div(self.code, c))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        if self.code == 0:
            raise DivisionByZero("division by zero")
        return FqElement(self.field, self.field.div(c, self.code))

    def __pow__(self, e):
        return FqElement(self.field, self.field.pow_(self.code, e))

    def __neg__(self):
        return FqElement(self.field, self.field.neg(self.code))

    def inverse(self):
        return FqElement(self.field, self.field.inv(self.code))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, FqElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def multiplicative_order(self):
        return self.field._order_of(self.code)

    def __repr__(self):
        return self.field.format_element(self.code)


def primitive_element(field):
    """The ordering-smallest element of multiplicative order q-1."""
    return FqElement(field, field.generator)
