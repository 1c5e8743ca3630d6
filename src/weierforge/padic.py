"""Binomials mod p, the digitwise p-adic criterion, and order sequences of
monomial morphisms t -> (t^a0 : ... : t^an) from the projective line.

The criterion: a set of nonnegative integers is digit-closed in base p when
every mu whose base-p digits are bounded by those of a member is itself a
member; equivalently binom(member, mu) != 0 mod p.
"""

from __future__ import annotations

import math

from .exact import GF, scalar_echelon, triangular_insert


class OrderSequence:
    """Strictly increasing integers eps_0 = 0 < eps_1 < ... attached to a
    linear system; in characteristic 0 always (0, 1, ..., s-1)."""

    __slots__ = ("terms", "characteristic")

    def __init__(self, terms, characteristic):
        terms = tuple(terms)
        if not terms or terms[0] != 0:
            raise ValueError("order sequence must start at 0")
        if any(b <= a for a, b in zip(terms, terms[1:])):
            raise ValueError("order sequence must be strictly increasing")
        if characteristic == 0 and terms != tuple(range(len(terms))):
            raise ValueError("characteristic-0 order sequence must be 0..s-1")
        if characteristic > 0 and not satisfies_p_adic_criterion(terms, characteristic):
            raise ValueError("order sequence violates the p-adic criterion")
        self.terms = terms
        self.characteristic = characteristic

    @property
    def N(self):
        return sum(self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __eq__(self, other):
        if isinstance(other, OrderSequence):
            return self.terms == other.terms and self.characteristic == other.characteristic
        if isinstance(other, tuple):
            return self.terms == other
        return NotImplemented

    def __hash__(self):
        return hash((self.terms, self.characteristic))

    def __repr__(self):
        return "OrderSequence(%r, characteristic=%d)" % (list(self.terms), self.characteristic)


def binom_mod_p(n, k, p):
    """C(n, k) mod p by the base-p digit product (Lucas)."""
    GF(p)    # rejects a p that is not prime; cached, so p is tested once
    if k < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n:
        return 0
    result = 1
    while n or k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        result = result * math.comb(nd, kd) % p
    return result


def p_adically_smaller(mu, eps, p):
    """True when every base-p digit of mu is at most the matching digit of
    eps (and mu >= 0); equivalent to binom_mod_p(eps, mu, p) != 0."""
    GF(p)
    if mu < 0:
        return False
    while mu or eps:
        if mu % p > eps % p:
            return False
        mu //= p
        eps //= p
    return True


def satisfies_p_adic_criterion(seq, p):
    """True when the set is closed under taking p-adically smaller values:
    those below each term are enumerated digit by digit, and a term with
    more of them than there are terms fails at once."""
    GF(p)    # rejects a p that is not prime before any digit is taken
    terms = tuple(seq)
    members = set(terms)
    if len(members) != len(terms):
        raise ValueError("terms must be distinct")
    if any(eps < 0 for eps in terms):
        raise ValueError("terms must be nonnegative")
    for eps in terms:
        below, place = [0], 1
        while eps:
            eps, digit = divmod(eps, p)
            below = [mu + d * place for mu in below for d in range(digit + 1)]
            if len(below) > len(terms):
                return False
            place *= p
        if not members.issuperset(below):
            return False
    return True


def monomial_order_sequence(exponents, p):
    """Order sequence of t -> (t^a0 : ... : t^an).

    The result is the lexicographically minimal strictly increasing (eps_i)
    with det(C(a_j, eps_i)) != 0 mod p, found greedily over GF(p), each
    candidate row of residues inserted once into one echelon form, and then
    verified by the full rank of that matrix.  For p = 0 it is (0, ..., n).
    """
    exponents = tuple(exponents)
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")
    if exponents and exponents[0] < 0:
        raise ValueError("exponents must be nonnegative")
    shift = exponents[0]
    exponents = tuple(a - shift for a in exponents)  # shifting changes no orders
    s = len(exponents)
    if p == 0:
        return OrderSequence(range(s), 0)
    field = GF(p)
    chosen, pivots, rows = [], [], []
    eps = -1
    while len(chosen) < s:
        eps += 1
        if eps > exponents[-1]:
            raise AssertionError("order search exceeded the exponent bound")
        if triangular_insert(pivots, rows, [binom_mod_p(a, eps, p) for a in exponents], p) is not None:
            chosen.append(eps)
    matrix = [[field(binom_mod_p(a, e, p)) for a in exponents] for e in chosen]
    if len(scalar_echelon(matrix)[0]) < s:
        raise AssertionError("greedy order sequence failed determinant verification")
    return OrderSequence(chosen, p)


def classicality_product_test(gaps, p):
    """True when p does not divide prod_{i>j} (l_i - l_j)/(i - j).

    The product is an integer (a ratio of generalized Vandermonde
    determinants); integrality is asserted.
    """
    gaps = tuple(gaps)
    if any(b <= a for a, b in zip(gaps, gaps[1:])):
        raise ValueError("gaps must be strictly increasing")
    num = 1
    den = 1
    for i in range(len(gaps)):
        for j in range(i):
            num *= gaps[i] - gaps[j]
            den *= i - j
    if num % den:
        raise AssertionError("gap determinant %d / %d is not an integer" % (num, den))
    return (num // den) % p != 0


def uses_all_weight(gaps, p):
    """For a symmetric gap sequence: the single singularity carries the whole
    weight exactly when the shifted sequence l_1-1, ..., l_g-1 is digit-closed
    in base p."""
    return satisfies_p_adic_criterion(tuple(l - 1 for l in gaps), p)
