"""Binomials mod p, the digitwise p-adic criterion, and order sequences of
monomial morphisms t -> (t^a0 : ... : t^an) from the projective line.

The criterion: a set of nonnegative integers is digit-closed in base p when
every mu whose base-p digits are bounded by those of a member is itself a
member; equivalently binom(member, mu) != 0 mod p.
"""

from __future__ import annotations

import heapq
import itertools
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


def satisfies_p_adic_criterion(seq, p):
    """True when the set is closed under taking p-adically smaller values:
    those below each term are enumerated in ascending order, at most one
    more of them than there are terms, so a term with too many fails at once."""
    GF(p)    # rejects a p that is not prime before any digit is taken
    terms = tuple(seq)
    members = set(terms)
    if len(members) != len(terms):
        raise ValueError("terms must be distinct")
    if any(eps < 0 for eps in terms):
        raise ValueError("terms must be nonnegative")
    return all(members.issuperset(itertools.islice(_p_adically_below(eps, p), len(terms) + 1))
               for eps in terms)


def monomial_order_sequence(exponents, p):
    """Order sequence of t -> (t^a0 : ... : t^an).

    The result is the lexicographically minimal strictly increasing (eps_i)
    with det(C(a_j, eps_i)) != 0 mod p, found greedily over GF(p), each
    candidate row of residues inserted once into one echelon form, and then
    verified by the full rank of that matrix.  A row is zero unless eps is
    p-adically below some a_j, so only those eps are tried, in ascending
    order.  For p = 0 it is (0, ..., n).
    """
    exponents = tuple(exponents)
    if not exponents or exponents[0] < 0:
        raise ValueError("exponents must be nonempty and nonnegative")
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")
    shift = exponents[0]
    exponents = tuple(a - shift for a in exponents)  # shifting changes no orders
    s = len(exponents)
    if p == 0:
        return OrderSequence(range(s), 0)
    GF(p)    # rejects a p that is not prime before any digit is taken
    chosen, pivots, rows = [], [], []
    for eps, _ in itertools.groupby(heapq.merge(*(_p_adically_below(a, p) for a in exponents))):
        if triangular_insert(pivots, rows, [binom_mod_p(a, eps, p) for a in exponents], p) is not None:
            chosen.append(eps)
            if len(chosen) == s:
                break
    else:
        raise AssertionError("order search exceeded the exponent bound")
    matrix = [[binom_mod_p(a, e, p) for a in exponents] for e in chosen]
    if len(scalar_echelon(matrix, p)[0]) < s:
        raise AssertionError("greedy order sequence failed determinant verification")
    return OrderSequence(chosen, p)


def _p_adically_below(a, p):
    """Every mu whose base-p digits are at most those of a, in ascending
    order: a count in the mixed radix of a's digits, least significant first."""
    digits, place = [], 1
    while a:
        a, d = divmod(a, p)
        digits.append((d, place))
        place *= p
    mu, counts = 0, [0] * len(digits)
    while True:
        yield mu
        i = 0
        while i < len(digits) and counts[i] == digits[i][0]:
            mu -= counts[i] * digits[i][1]
            counts[i] = 0
            i += 1
        if i == len(digits):
            return
        counts[i] += 1
        mu += digits[i][1]


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
