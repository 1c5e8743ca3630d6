"""Exact arithmetic kernel.

Coefficient fields (arbitrary-precision rationals and prime fields),
dense univariate polynomials, rational functions with valuations at
finite points and at infinity, Hasse (iterative) derivatives, windows of
truncated power series, fraction-free linear algebra over the function
field, and reduced row echelon forms on int rows, p = 0 standing for ZZ.

Everything here is immutable after construction and exact; there is no
floating point anywhere.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


class TruncationError(ValueError):
    """An operation would need series coefficients past the known window."""


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

# The least strong pseudoprime to all of the first 13 primes is _MR_LIMIT
# (Sorenson & Webster 2017), so Miller-Rabin on them is exact below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin on the prime bases 2..41; an n of
    _MR_LIMIT (about 3.3 * 10^24) or more raises ValueError rather than
    answer without proof."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError("characteristic %d is too large: primality is decided "
                         "only below %d" % (n, _MR_LIMIT))
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Residue in GF(p), p prime.  Arithmetic is exact modular arithmetic."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            return FpElement(other.numerator, self.p) / FpElement(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return FpElement(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, n):
        if n < 0:
            return FpElement(1, self.p) / self ** (-n)
        return FpElement(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            return other.denominator % self.p != 0 and self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "FpElement(%d, %d)" % (self.value, self.p)

    def __str__(self):
        return str(self.value)


# Bounds decimal exponents: Fraction("1e-999999999") builds 10^999999999.
MAX_DECIMAL_EXPONENT = 100000


class RationalField:
    """The field of rational numbers; elements are `fractions.Fraction`."""

    characteristic = 0

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            digits = value.lower().partition("e")[2].strip().lstrip("+-0_")
            if len(digits) > 20 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError("decimal exponent beyond %d" % MAX_DECIMAL_EXPONENT)
            return Fraction(value)
        raise TypeError("cannot coerce %r into QQ" % (value,))

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        self.p = p
        self.characteristic = p

    def __call__(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError("element of GF(%d) in GF(%d)" % (value.p, self.p))
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return FpElement(value.numerator, self.p) / FpElement(value.denominator, self.p)
        if isinstance(value, str):
            return self(QQ(value))
        raise TypeError("cannot coerce %r into GF(%d)" % (value, self.p))

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_of_characteristic(p):
    return QQ if p == 0 else GF(p)


class _Infinity:
    """The point at infinity on the projective line (a sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def binomial(n, k):
    """Binomial coefficient with integer upper argument, possibly negative.

    For n < 0 this is the generalized coefficient
    n(n-1)...(n-k+1)/k!, still an integer.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


# ---------------------------------------------------------------------------
# Dense univariate polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial over QQ or GF(p), stored as ints c / d:
    c a tuple of ints, lowest degree first, without trailing zeros; over QQ
    d > 0 with gcd(d, content c) = 1 and d = 1 for zero, over GF(p) c the
    reduced residues and d = 1.  coeffs, the tuple of field scalars with
    coeffs[i] the coefficient of t^i, is built on first use; the zero
    polynomial has an empty tuple and degree -1."""

    __slots__ = ("field", "_c", "_d", "_coeffs")

    def __init__(self, field, coeffs):
        p = field.characteristic
        self._store(field, *scalar_ints([x if isinstance(x, (int, Fraction)) and not p else field(x)
                                         for x in coeffs], p))

    def _store(self, field, c, d):
        p = field.characteristic
        c = _mod_p(c, p)
        if p and d != 1:
            inv = pow(d, -1, p)
            c = [x * inv % p for x in c]
        if p or not c:
            d = 1
        elif d != 1:
            g = math.gcd(d, *c) if d > 0 else -math.gcd(d, *c)
            c, d = [x // g for x in c], d // g
        self.field, self._c, self._d, self._coeffs = field, tuple(c), d, None

    @classmethod
    def variable(cls, field):
        return cls(field, [0, 1])

    @classmethod
    def monomial(cls, field, degree, c=1):
        return cls(field, [0] * degree + [c])

    @property
    def coeffs(self):
        if self._coeffs is None:
            p = self.field.characteristic
            self._coeffs = tuple(FpElement(x, p) if p else Fraction(x, self._d) for x in self._c)
        return self._coeffs

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self._c) else self.field.zero

    @property
    def leading_coefficient(self):
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _ints(self):
        """(c, d) with self = c / d, as stored."""
        return self._c, self._d

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        if isinstance(other, (int, Fraction, FpElement)):
            return Polynomial(self.field, [other])
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        (a, da), (b, db) = self._ints(), other._ints()
        d = math.lcm(da, db)
        return _from_ints(self.field, _sub_mod_p([x * (d // da) for x in a],
                                                 [-x * (d // db) for x in b], 0), d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _from_ints(self.field, [-x for x in self._c], self._d)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._lift(other)
        if other is None:
            return NotImplemented
        (a, da), (b, db) = self._ints(), other._ints()
        return _from_ints(self.field, _mul_mod_p(a, b, self.field.characteristic), da * db)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial(self.field, [1])
        for bit in bin(n)[2:]:
            result = result * result * self if bit == "1" else result * result
        return result

    def __divmod__(self, other):
        other = self._lift(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.characteristic
        (a, da), (b, db) = self._ints(), other._ints()
        # over QQ, pseudo-division in ZZ[t]: lc(b)^e a = q b + r
        s = 1 if p else b[-1] ** max(len(a) - len(b) + 1, 0)
        q, r = _divmod_mod_p([c * s for c in a], b, p)
        return (_from_ints(self.field, [c * db for c in q], s * da),
                _from_ints(self.field, r, s * da))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        """Quotient that is required to be exact; ArithmeticError otherwise."""
        other = self._lift(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.characteristic
        (a, da), (b, db) = self._ints(), other._ints()
        g = 1 if p else math.gcd(*b)    # b / g is primitive: the quotient lies in ZZ[t]
        q = _exact_div_mod_p(a, [c // g for c in b], p)
        return _from_ints(self.field, [c * db for c in q], g * da)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            return self * (self.field.one / self.field(other))
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return RationalFunction(lifted, self)

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except (ArithmeticError, TypeError, ValueError):    # outside the field, as in FpElement
            return False
        if other is None:
            return NotImplemented
        return self._c == other._c and self._d == other._d

    def __hash__(self):
        return hash((self.field, self._c, self._d))

    def __call__(self, x):
        """The value at a field scalar x (homogenised integer Horner over QQ,
        residues over GF(p)), or the generic Horner sum at anything else."""
        if isinstance(x, (int, Fraction, FpElement)):
            x, p = self.field(x), self.field.characteristic
            if p:
                return FpElement(_horner(self._c, x.value, p), p)
            w = x.denominator
            return Fraction(_homogeneous(self._c, x.numerator, w), self._d * w ** max(self.degree, 0))
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        return _from_ints(self.field, self._c, self._c[-1])

    def derivative(self):
        return _from_ints(self.field, _derivative(self._c), self._d)

    def hasse(self, i):
        """i-th Hasse derivative: c_j t^j contributes binom(j, i) c_j t^(j-i)."""
        if i < 0:
            raise ValueError("negative Hasse derivative order")
        c, d = self._ints()
        return _from_ints(self.field, _hasse_mod_p(c, i, self.field.characteristic), d)

    def shift(self, a):
        """The polynomial p(t + a), by Horner."""
        result, x = Polynomial(self.field, []), Polynomial(self.field, [a, 1])
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def reversed_coeffs(self, n=None):
        """t^n * p(1/t) for n >= deg p (default n = deg p)."""
        if self.is_zero():
            return self
        if n is None:
            n = self.degree
        if n < self.degree:
            raise ValueError("reversal bound below degree")
        return _from_ints(self.field, (0,) * (n - self.degree) + self._c[::-1], self._d)

    def root_multiplicity(self, a):
        """Multiplicity of t = a as a root: on the stored ints q and a = u / w,
        divide q by w t - u (exact in ZZ[t] by Gauss's lemma) while
        w^n q(a) = 0."""
        if self.is_zero():
            return math.inf
        a, p, q = self.field(a), self.field.characteristic, self._c
        u, w = (a.value, 1) if p else (a.numerator, a.denominator)
        m = 0
        while not (_horner(q, u, p) if p else _homogeneous(q, u, w)):
            q = _exact_div_mod_p(q, _mod_p([-u, w], p), p)
            m += 1
        return m

    def multiplicity_of_factor(self, g):
        """Largest e with g^e dividing self (g nonconstant)."""
        if self.is_zero():
            return math.inf
        if g.degree < 1:
            raise ValueError("factor must be nonconstant")
        e, (q, r) = 0, divmod(self, g)
        while r.is_zero():
            e, (q, r) = e + 1, divmod(q, g)
        return e

    def gcd(self, other):
        if self.is_zero() and other.is_zero():
            return self
        g = _gcd_mod_p(self._ints()[0], other._ints()[0], self.field.characteristic)
        return _from_ints(self.field, g, g[-1])

    def squarefree_decomposition(self):
        """List of (monic squarefree factor, multiplicity); product recovers
        self up to the leading constant.  Handles p-th powers in GF(p)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return [(_from_ints(self.field, f, f[-1]), m)
                for f, m in _squarefree_decomposition_mod_p(self._c, self.field.characteristic)]

    def rational_roots(self):
        """The distinct roots in the coefficient field, each once, also when
        the polynomial is not squarefree.

        Over GF(p) they come in ascending order of residue, over QQ in
        ascending order of value.  The cost is polynomial in the degree,
        in log p and in the coefficient size: over GF(p) a Frobenius gcd
        and equal-degree splitting, over QQ roots modulo a small prime
        lifted by Newton-Hensel iteration.  Every root is checked by
        exact evaluation.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        p = self.field.characteristic
        if p == 0:
            return _rational_roots_qq(self)
        roots = [FpElement(r, p) for r in _roots_mod_p(self._ints()[0], p)]
        if any(self(r) for r in roots):
            raise AssertionError("a root found over GF(%d) does not vanish" % p)
        return roots

    def __str__(self):
        return self.to_str("t")

    def to_str(self, var):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                mono = var if i == 1 else "%s^%d" % (var, i)
                if c == self.field.one:
                    term = mono
                elif self.field.characteristic == 0 and c == -1:
                    term = "-" + mono
                else:
                    term = "%s*%s" % (c, mono)
            parts.append(term)
        s = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                s += " - " + term[1:]
            else:
                s += " + " + term
        return s

    def __repr__(self):
        return "Polynomial(%r, %r)" % (self.field, list(self.coeffs))


# ---------------------------------------------------------------------------
# Polynomial arithmetic on ints behind Polynomial.  A polynomial is a list of
# ints, lowest degree first, without trailing zeros: residues in [0, p) over
# GF(p), or integers over ZZ, which the helpers take as p = 0.
# ---------------------------------------------------------------------------

def scalar_ints(xs, p):
    """(c, d) with xs = c / d for ints c (residues over GF(p)) and d > 0."""
    if p:
        return [x.value for x in xs], 1
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def window_ints(series, windows, p):
    """The coefficients of each series below its window, concatenated and
    cleared to one int vector (residues over GF(p))."""
    return scalar_ints([s.coefficient(i) for s, w in zip(series, windows)
                        for i in range(w)], p)[0]


def _cleared(polys):
    """([c_j], d): polys[j] = c_j / d, the c_j int lists over one d > 0
    (residues over GF(p), d = 1)."""
    cleared = [f._ints() for f in polys]
    d = math.lcm(*(den for _c, den in cleared))
    return [[x * (d // den) for x in c] for c, den in cleared], d


def _from_ints(field, c, d=1):
    """The Polynomial c / d over the field, for ints c and d != 0 (over
    GF(p), d a unit), stored in canonical form."""
    f = Polynomial.__new__(Polynomial)
    f._store(field, c, d)
    return f


def _mod_p(a, p):
    out = [c % p for c in a] if p else list(a)
    while out and not out[-1]:
        out.pop()
    return out


def _primitive(a):
    g = math.gcd(*a) or 1
    return [c // g for c in a]


def _monic_mod_p(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sub_mod_p(a, b, p):
    return _mod_p([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                   for i in range(max(len(a), len(b)))], p)


def _mul_mod_p(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mod_p(out, p)


def _mul_trunc(a, b, n, p):
    """The first n coefficients of a b mod p (p = 0: over ZZ), zeros past its end included."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                out[j] += x * y
    return [c % p for c in out] if p else out


def _dot_mod_p(xs, ys, p):
    """The sum of the products a * b over the pairs of lists in zip(xs, ys)."""
    out = [0] * max((len(a) + len(b) - 1 for a, b in zip(xs, ys) if a and b), default=0)
    for a, b in zip(xs, ys):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
    return _mod_p(out, p)


def _hasse_mod_p(a, i, p):
    """i-th Hasse derivative: a_j t^j contributes C(j, i) a_j t^(j-i)."""
    return _mod_p([math.comb(j, i) * a[j] for j in range(i, len(a))], p)


def _divmod_mod_p(a, b, p):
    """(quotient, remainder) of a by the nonzero b.  Over ZZ every quotient
    coefficient must come out an integer; ArithmeticError otherwise."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p else None
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c, left = (rem[k + db] * inv % p, 0) if p else divmod(rem[k + db], b[-1])
        if left:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    return quo, _mod_p(rem[:db], p)


def _exact_div_mod_p(a, b, p):
    q, r = _divmod_mod_p(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _gcd_mod_p(a, b, p):
    """gcd of a and b, not both zero: monic over GF(p); over ZZ primitive
    with a positive lead, by the primitive pseudo-remainder sequence."""
    while b:
        s = 1 if p else b[-1] ** max(len(a) - len(b) + 1, 0)
        r = _divmod_mod_p([c * s for c in a], b, p)[1]
        a, b = b, r if p else _primitive(r)
    return _monic_mod_p(a, p) if p else _primitive(a if a[-1] > 0 else [-c for c in a])


def _squarefree_decomposition_mod_p(f, p):
    """[(factor, multiplicity)] for the nonzero f: squarefree factors,
    monic over GF(p) and primitive with a positive lead over ZZ, whose
    product with multiplicities is f up to a constant.  p-th powers over
    GF(p) are contracted: the prime field is fixed by Frobenius."""
    f = _gcd_mod_p(f, [], p)
    out = []
    if len(f) < 2:
        return out
    d = _mod_p(_derivative(f), p)
    if not d:
        return [(fac, m * p) for fac, m in _squarefree_decomposition_mod_p(f[::p], p)]
    rest = _gcd_mod_p(f, d, p)
    sqfree, m = _exact_div_mod_p(f, rest, p), 1
    while len(sqfree) > 1:
        nxt = _gcd_mod_p(sqfree, rest, p)
        factor = _exact_div_mod_p(sqfree, nxt, p)
        if len(factor) > 1:
            out.append((factor, m))
        sqfree, rest, m = nxt, _exact_div_mod_p(rest, nxt, p), m + 1
    # the p-th power part left over, merged into equal factors
    for fac, mult in _squarefree_decomposition_mod_p(rest, p) if len(rest) > 1 else ():
        merged = False
        for i, (f0, m0) in enumerate(out):
            if f0 == fac:
                out[i] = (f0, m0 + mult)
                merged = True
        if not merged:
            out.append((fac, mult))
    return out


def _powmod_mod_p(a, e, f, p):
    """a^e mod the monic f over GF(p), by repeated squaring."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _divmod_mod_p(_mul_mod_p(result, result, p), f, p)[1]
        if bit == "1":
            result = _divmod_mod_p(_mul_mod_p(result, a, p), f, p)[1]
    return result


def _roots_mod_p(f, p):
    """Distinct roots in GF(p) of the nonzero f, ascending.

    g = gcd(f, t^p - t) is the product of the distinct linear factors of f;
    t^p mod f takes O(log p) squarings.
    """
    if len(f) < 2:
        return []
    f = _monic_mod_p(f, p)
    t = [0, 1]
    g = _gcd_mod_p(f, _sub_mod_p(_powmod_mod_p(t, p, f, p), t, p), p)
    return sorted(_split_linear(g, p, 0))


def _split_linear(g, p, shift):
    """Roots of g, a monic product of distinct linear factors over GF(p).

    Equal-degree splitting: gcd(g, (t + a)^((p-1)/2) - 1) collects the roots
    r with r + a a nonzero square.  The shifts a = shift, shift + 1, ... are
    tried in order, so the result and the run time repeat; for two distinct
    roots, (p - 1)/2 of any p consecutive shifts separate them.
    """
    d = len(g) - 1
    if d == 0:
        return []
    if d == 1:
        return [-g[0] % p]
    if p == 2:
        return [0, 1]    # g = t(t + 1)
    for a in range(shift, shift + p):
        h = _powmod_mod_p([a % p, 1], (p - 1) // 2, g, p)
        h = _gcd_mod_p(g, _sub_mod_p(h, [1], p), p)
        if 0 < len(h) - 1 < d:
            return (_split_linear(h, p, a + 1)
                    + _split_linear(_exact_div_mod_p(g, h, p), p, a + 1))
    raise AssertionError("no shift split a product of distinct linear factors")


def _rational_roots_qq(f):
    """Distinct rational roots of the nonzero f over QQ, ascending.

    f is cleared to primitive integers c_0..c_n, and replaced by its
    squarefree part unless f mod the least odd prime p not dividing c_n is
    squarefree.  Each root mod the least such p with f mod p squarefree is
    Newton-Hensel lifted to p^k > 2|c_n c_0|.  A rational root z/w has
    w | c_n and z | c_0, so c_n times it is the symmetric residue of
    c_n r mod p^k; each such candidate is kept only if it is a root.
    """
    c = _primitive(f._ints()[0])
    p = 3
    while not c[-1] % p:
        p = _next_odd_prime(p)
    if not _squarefree_mod_p(c, p):
        c = _primitive(_exact_div_mod_p(c, _gcd_mod_p(c, _derivative(c), 0), 0))
        while not (c[-1] % p and _squarefree_mod_p(c, p)):
            p = _next_odd_prime(p)
    roots = []
    if c[0] == 0:
        roots.append(Fraction(0))
        c = c[1:]
    if len(c) < 2:
        return roots
    dc = _derivative(c)
    lead, bound = c[-1], 2 * abs(c[-1] * c[0])
    for r in _roots_mod_p(_mod_p(c, p), p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(c, r, m) * pow(_horner(dc, r, m), -1, m)) % m
        z = lead * r % m
        if z > m // 2:
            z -= m
        # exact test of f(z/lead) = 0, scaled by lead^n
        if not _homogeneous(c, z, lead):
            roots.append(Fraction(z, lead))
    return sorted(roots)


def _derivative(c):
    return [i * x for i, x in enumerate(c)][1:]


def _squarefree_mod_p(c, p):
    return len(_gcd_mod_p(_mod_p(c, p), _mod_p(_derivative(c), p), p)) == 1


def _next_odd_prime(p):
    p += 2
    while not _is_prime(p):
        p += 2
    return p


def _horner(c, x, m):
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % m
    return acc


def _homogeneous(c, u, w):
    """w^n c(u / w), n = len(c) - 1, exactly: sum c_i u^i w^(n-i) by Horner."""
    acc, scale = 0, 1
    for a in reversed(c):
        acc, scale = acc * u + a * scale, scale * w
    return acc


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of polynomials, stored reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial(num.field, [1])
        if isinstance(num, (int, Fraction, FpElement)):
            num = Polynomial(den.field, [num])
        if isinstance(den, (int, Fraction, FpElement)):
            den = Polynomial(num.field, [den])
        if num.field != den.field:
            raise ValueError("mixed coefficient fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial(num.field, [1])
        else:
            # on the stored ints: cancel the gcd, then make den monic
            p, (a, da), (b, db) = num.field.characteristic, num._ints(), den._ints()
            g = _gcd_mod_p(a, b, p)
            a, b = _exact_div_mod_p(a, g, p), _exact_div_mod_p(b, g, p)
            num = _from_ints(num.field, [x * db for x in a], da * b[-1])
            den = _from_ints(den.field, b, b[-1])
        self.num, self.den = num, den

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree == 0

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, FpElement)):
            return RationalFunction(Polynomial(self.field, [other]))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except (ArithmeticError, TypeError, ValueError):
            return False
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        d = self.den(x)
        if not d:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(x) / d

    def valuation(self, point):
        """Order of vanishing at a finite point or at INF; negative at poles;
        +inf for the zero function."""
        if self.is_zero():
            return math.inf
        if point is INF:
            return self.den.degree - self.num.degree
        return self.num.root_multiplicity(point) - self.den.root_multiplicity(point)

    def multiplicity_of_factor(self, g):
        """Order along the places cut out by the nonconstant polynomial g."""
        if self.is_zero():
            return math.inf
        return self.num.multiplicity_of_factor(g) - self.den.multiplicity_of_factor(g)

    def hasse(self, i):
        return self.hasse_list(i)[i]

    def hasse_list(self, n):
        """[D^(0)f, ..., D^(n)f] via the product-rule recurrence
        D^(i)(num) = sum_{a+b=i} D^(a)(f) * D^(b)(den).

        With num and den cleared to int lists over one common denominator
        (residues over GF(p)), D^(i)f is carried as P_i / den^(i+1) with the
        int recurrence P_i = D^(i)(num) den^i - sum_{a<i} P_a den^(i-1-a)
        D^(i-a)(den), so only the final packaging reduces fractions.
        """
        if n < 0:
            raise ValueError("negative Hasse derivative order")
        p = self.field.characteristic
        (num, den), _d = _cleared((self.num, self.den))
        dden = [_hasse_mod_p(den, i, p) for i in range(n + 1)]
        den_pow = [[1]]
        for _ in range(n + 1):
            den_pow.append(_mul_mod_p(den_pow[-1], den, p))
        parts = [num]
        for i in range(1, n + 1):
            acc = _mul_mod_p(_hasse_mod_p(num, i, p), den_pow[i], p)
            for a in range(i):
                acc = _sub_mod_p(acc, _mul_mod_p(_mul_mod_p(parts[a], den_pow[i - 1 - a], p),
                                                 dden[i - a], p), p)
            parts.append(acc)
        return [self] + [RationalFunction(_from_ints(self.field, parts[i]),
                                          _from_ints(self.field, den_pow[i + 1]))
                         for i in range(1, n + 1)]

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        ns = str(self.num)
        if " " in ns:
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, self.den)

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Coefficient window of an element of a declared local basis: sum of
    coeffs[k] * t^(offset+k), guaranteed correct for exponents
    [offset, truncation).

    truncation None means the series is exactly known (all higher
    coefficients vanish).  Reading a coefficient past the truncation
    raises TruncationError instead of guessing.
    """

    __slots__ = ("field", "offset", "coeffs", "truncation")

    def __init__(self, field, offset, coeffs, truncation):
        cs = [field(c) if not isinstance(c, (Fraction, FpElement)) else c for c in coeffs]
        if truncation is not None:
            cs = cs[:max(0, truncation - offset)]
        while cs and not cs[0]:
            cs.pop(0)
            offset += 1
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            offset = 0
        self.field = field
        self.offset = offset
        self.coeffs = tuple(cs)
        self.truncation = truncation

    def coefficient(self, i):
        if self.truncation is not None and i >= self.truncation:
            raise TruncationError("coefficient %d past truncation %d" % (i, self.truncation))
        if self.offset <= i < self.offset + len(self.coeffs):
            return self.coeffs[i - self.offset]
        return self.field.zero

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.offset == other.offset and self.coeffs == other.coeffs
                and self.truncation == other.truncation)

    def __hash__(self):
        return hash((self.offset, self.coeffs, self.truncation))

    def __repr__(self):
        return "TruncatedSeries(%r, %d, %r, %r)" % (
            self.field, self.offset, list(self.coeffs), self.truncation)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def shared_denominator(functions):
    """(D, [n_j]) with f_j = n_j / D for the given nonempty sequence of
    rational functions, D the monic lcm of their denominators."""
    common = Polynomial(functions[0].field, [1])
    for f in functions:
        g = common.gcd(f.den)
        common = common * (f.den.exact_div(g) if g.degree > 0 else f.den)
    return common, [f.num * common.exact_div(f.den) for f in functions]


def fraction_free_rank_det(rows):
    """Rank over the function field and, for square input, the exact
    determinant as a RationalFunction, of a matrix of Polynomial,
    RationalFunction or field scalar entries: _bareiss_mod_p on the rows
    cleared of denominators, each row scaled once to ints (residues over
    GF(p))."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0, None
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    field = next((x.field for r in rows for x in r
                  if isinstance(x, (Polynomial, RationalFunction))), None)
    if field is None:
        raise ValueError("matrix carries no field information")

    # clear denominators row by row, remembering the multipliers
    one = Polynomial(field, [1])
    cleared = [shared_denominator([x if isinstance(x, RationalFunction) else RationalFunction(x, one)
                                   for x in r]) for r in rows]
    ints = [_cleared(nums) for _common, nums in cleared]
    rank, det, sign = _bareiss_mod_p([c for c, _d in ints], field.characteristic)
    if len(rows) != ncols:
        return rank, None
    if rank < ncols:
        return rank, RationalFunction(Polynomial(field, []))
    return rank, RationalFunction(_from_ints(field, [x * sign for x in det],
                                             math.prod(d for _c, d in ints)),
                                  math.prod(common for common, _nums in cleared))


def quotient_rows(field, numerators, G, eps):
    """The rows P_e = G^(e+1) D^(e)(n_j / G), e in eps, as int lists, of
    int lists n_j and G (residues over GF(p)).  By the Leibniz rule P_e is
    the sum over a <= e of D^(a)(n_j) G^a Q_(e-a), Q_b = G^(b+1) D^(b)(1/G)
    from one hasse_list of 1/G.  The quotient-rule recurrence for Q_b has
    integer coefficients, so every Q_b is an int list (its stored
    denominator is 1) and all terms of a row share one scale: no term is
    cleared on its own."""
    if not eps:
        return []
    p, top = field.characteristic, max(eps)
    powers = [[1]]    # G^a
    for _ in range(top + 1):
        powers.append(_mul_mod_p(powers[-1], G, p))
    inverse = RationalFunction(Polynomial(field, [1]), _from_ints(field, G))
    quotients = [[1]] + [(_from_ints(field, powers[b + 1]).exact_div(h.den) * h.num)._ints()[0]
                         for b, h in enumerate(inverse.hasse_list(top)) if b]    # Q_0 = 1
    hasse = [[_hasse_mod_p(n, a, p) for n in numerators] for a in range(top + 1)]
    rows = []
    for e in eps:
        terms = [_mul_mod_p(powers[a], quotients[e - a], p) for a in range(e + 1)]
        rows.append([_dot_mod_p([h[j] for h in hasse[:e + 1]], terms, p)
                     for j in range(len(numerators))])
    return rows


def series_det_order(rows, p, K):
    """ord_x det of a square matrix of int lists (residues over GF(p)) known
    mod x^K.  Pivot on an entry of least valuation v in the block left; put
    unit row - (row[c] / x^v) pivot_row, unit = pivot / x^v, for every other
    row (made primitive over ZZ): entries stay known mod x^K, multipliers are
    units, and the order is the sum of the v.  TruncationError when the
    block left is zero mod x^K."""
    work = [[_mod_p(f[:K], p) for f in row] for row in rows]
    order = 0
    while work:
        v, i, c = min(((next(k for k, y in enumerate(f) if y), i, c) for i, row in enumerate(work)
                       for c, f in enumerate(row) if f), default=(None, 0, 0))
        if v is None:
            raise TruncationError("a block of %d rows is zero mod x^%d" % (len(work), K))
        order += v
        top = work.pop(i)
        unit = top.pop(c)[v:]
        for r, row in enumerate(work):
            f = row.pop(c)[v:]
            if f:    # a and b vanish below x^v: as first factors, their zeros are skipped
                row = [_sub_mod_p(_mul_trunc(a, unit, K, p), _mul_trunc(b, f, K, p), p)
                       for a, b in zip(row, top)]
                g = 0 if p else math.gcd(*(x for a in row for x in a))
                work[r] = [[x // g for x in a] for a in row] if g > 1 else row
    return order


def _bareiss_mod_p(work, p):
    """Fraction-free elimination in place on int lists in ZZ[t] (GF(p)[t]),
    each division exact (Sylvester's identity) and checked: (rank, last
    pivot, sign)."""
    m, n = len(work), len(work[0])
    prev, sign, r = [1], 1, 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r]
        for row in work[r + 1:]:
            for j in range(c + 1, n):
                row[j] = _exact_div_mod_p(_sub_mod_p(_mul_mod_p(top[c], row[j], p),
                                                     _mul_mod_p(row[c], top[j], p), p),
                                          prev, p)
            row[c] = []
        prev = top[c]
        r += 1
    return r, prev, sign


def int_echelon(rows, p):
    """(pivots, rows): the reduced echelon form of the span of int rows over
    GF(p), or over ZZ for p = 0."""
    pivots, out = [], []
    for r in rows:
        echelon_insert(pivots, out, r, p)
    return pivots, out


def echelon_insert(pivots, rows, vec, p):
    """Insert the int vector vec into a reduced echelon form on int rows:
    residues with pivot entry 1 over GF(p), primitive rows with a positive
    pivot entry over ZZ (p = 0), each zero at the other pivot columns, so a
    unit multiple of the row of the field's unique reduced echelon form.
    pivots and rows are parallel lists sorted by pivot column, updated in
    place.  Returns False, changing nothing, when vec already lies in the
    span.  vec is not modified."""
    k = triangular_insert(pivots, rows, vec, p)
    if k is None:
        return False
    c, v = pivots[k], rows[k]
    for i, row in enumerate(rows):
        if i != k and row[c]:
            row = span_reduce([c], [v], row, p)
            rows[i] = row if p else _primitive(row)
    return True


def triangular_insert(pivots, rows, vec, p):
    """echelon_insert without clearing the new pivot column from the other
    rows; returns the new row's index, or None when vec lies in the span."""
    v = span_reduce(pivots, rows, vec, p)
    c = next((i for i, x in enumerate(v) if x), None)
    if c is None:
        return None
    unit = pow(v[c], -1, p) if p else (1 if v[c] > 0 else -1)
    v = [x * unit % p for x in v] if p else _primitive([x * unit for x in v])
    k = bisect.bisect(pivots, c)
    pivots.insert(k, c)
    rows.insert(k, v)
    return k


def span_reduce(pivots, rows, vec, p):
    """Reduce an int vector against an echelon form on int rows sorted by
    pivot, reduced or not: by v - f row over GF(p) and over ZZ at a pivot
    entry 1, otherwise by a v - f row made primitive.  A zero result means
    the vector lies in their span; over ZZ any other may keep a content."""
    v = list(vec)
    for pc, row in zip(pivots, rows):
        f = v[pc]
        if f and p:
            v[pc:] = [(x - f * y) % p for x, y in zip(v[pc:], row[pc:])]
        elif f and row[pc] == 1:
            v[pc:] = [x - f * y for x, y in zip(v[pc:], row[pc:])]
        elif f:
            g = math.gcd(row[pc], f)
            a, b = row[pc] // g, f // g
            v = _primitive([a * x - b * y for x, y in zip(v, row)])
    return v


def field_rows(pivots, rows, p):
    """The int rows of a reduced echelon form as field scalars, each divided
    by its pivot entry."""
    if p:
        return [[FpElement(x, p) for x in row] for row in rows]
    return [[Fraction(x, row[pc]) for x in row] for pc, row in zip(pivots, rows)]


def scalar_echelon(rows):
    """Reduced row echelon form over the field; returns (pivot columns,
    rows).  The pivot columns are the leading positions of the span's
    nonzero elements.  Input rows are not modified: each is cleared to ints
    once, and the int rows are divided by their pivot entries on the way out.
    """
    x = next((x for r in rows for x in r), None)
    p = x.p if isinstance(x, FpElement) else 0
    pivots, out = int_echelon([scalar_ints(r, p)[0] for r in rows], p)
    return pivots, field_rows(pivots, out, p)


def scalar_nullspace(rows, ncols, field):
    """Basis of the right nullspace of the matrix (vectors of length ncols)."""
    if not rows:
        return [[field.one if j == i else field.zero for j in range(ncols)]
                for i in range(ncols)]
    pivots, ech = scalar_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for prow, pc in zip(ech, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Place refinement (for divisor reports)
# ---------------------------------------------------------------------------

def coprime_refinement(polys):
    """Pairwise-coprime monic nonconstant polynomials through which every
    input factors; linear factors over the base field are split off.

    Each returned factor has a single well-defined multiplicity in every
    input (inputs are refined through their squarefree layers).
    """
    layers = [fac for p in dict.fromkeys(polys) if p.degree >= 1
              for fac, _m in p.squarefree_decomposition()]
    basis = []
    for f in layers:
        queue = [f]
        while queue:
            g = queue.pop()
            if g.degree < 1:
                continue
            for i, b in enumerate(basis):
                d = g.gcd(b)
                if d.degree < 1:
                    continue
                if d == b:
                    queue.append(g.exact_div(b))
                else:
                    basis[i] = d
                    basis.append(b.exact_div(d))
                    queue.append(g)
                break
            else:
                basis.append(g)
    # split off linear factors over the base field
    out = []
    for b in basis:
        for root in b.rational_roots():
            lin = Polynomial(b.field, [-root, 1])
            b = b.exact_div(lin)
            out.append(lin)
        if b.degree >= 1:
            out.append(b)
    out.sort(key=lambda q: (q.degree, [str(c) for c in q.coeffs]))
    return out
