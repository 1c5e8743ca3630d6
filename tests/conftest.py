"""Shared helpers: deterministic random corpora of semigroups, rational
functions, and Gorenstein two-branch rings."""

import math
import random
from fractions import Fraction

import pytest

from weierforge.exact import (
    GF,
    INF,
    QQ,
    Polynomial,
    RationalFunction,
    _exact_div_mod_p,
    _mul_mod_p,
    _sub_mod_p,
)
from weierforge.numsg import NumericalSemigroup
from weierforge.valsg2 import ring_from_generators
from weierforge.wronski import order_sequence


def random_semigroup(rng):
    while True:
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 14), k))
        try:
            return NumericalSemigroup.from_generators(gens)
        except ValueError:
            continue


def random_polynomial(rng, field, max_degree=4, zero_ok=True):
    while True:
        deg = rng.randint(0, max_degree)
        coeffs = [field(rng.randint(-4, 4)) for _ in range(deg + 1)]
        p = Polynomial(field, coeffs)
        if zero_ok or not p.is_zero():
            return p


def random_rational_function(rng, field, max_degree=3):
    num = random_polynomial(rng, field, max_degree)
    den = random_polynomial(rng, field, max_degree, zero_ok=False)
    return RationalFunction(num, den)


def derivative(f):
    """Ordinary derivative of a rational function by the quotient rule, an
    oracle independent of the Hasse-derivative code."""
    return RationalFunction(f.num.derivative() * f.den - f.num * f.den.derivative(),
                            f.den * f.den)


def valuation_at_zero(f):
    """Order of vanishing of a polynomial at t = 0, read off its coefficients."""
    return next((v for v, c in enumerate(f.coeffs) if c), math.inf)


def pole_term_weight_at(V, q):
    """wronski.differential_weight_at as it read the weight before the
    system was taken as numerators over the lcm of its denominators:
    ord_q W minus s times the least order of the f_j at q (of the f_j dt at
    INF) where that is negative, the orders taken function by function."""
    eps = order_sequence(V)
    det, D, s = V._det, V.denominator, len(V)
    if q is INF:
        pole = min(0, min(f.valuation(INF) for f in V.functions) - 2)
        return s * D.degree - det.degree - s * (pole + 2) - 2 * eps.N
    pole = min(0, min(f.valuation(q) for f in V.functions))
    return det.root_multiplicity(q) - s * (D.root_multiplicity(q) + pole)


def bareiss_mod_p(work, p):
    """Column-ordered fraction-free elimination in place on int lists in
    ZZ[t] (GF(p)[t]), with row swaps, each division exact (Sylvester's
    identity) and checked: (rank, last pivot, sign).  The elimination the
    package ran before it inserted rows one at a time, kept as a reference."""
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


def symmetric_semigroups(max_genus):
    """All symmetric numerical semigroups with 1 <= genus <= max_genus,
    enumerated by brute force over candidate gap sets."""
    from itertools import combinations

    out = []
    for g in range(1, max_genus + 1):
        top = 2 * g - 1
        for rest in combinations(range(1, top), g - 1):
            gaps = tuple(sorted(rest + (top,)))
            try:
                S = NumericalSemigroup(gaps)
            except ValueError:
                continue
            if S.is_symmetric():
                out.append(S)
    return out


# coprime (ord x, ord y) pairs; coprime orders keep each branch semigroup
# cofinite, so the delta invariant stays finite
_BRANCH_ORDERS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4)]


def _branch_series(rng, order, length=10):
    coeffs = [0] * order + [rng.choice([1, 1, 2, -1])]
    while len(coeffs) < length:
        coeffs.append(rng.choice([0, 0, 1, -1, 2]))
    return coeffs[:length]


def random_gorenstein_germs(count, max_delta=5, seed=2024):
    """Deterministic corpus of ([x, y], ring) pairs: validated Gorenstein
    two-branch rings generated by two series pairs (plane-curve germs) in a
    window of 14, with rejection."""
    rng = random.Random(seed)
    germs = []
    signatures = set()
    attempts = 0
    while len(germs) < count and attempts < 4000:
        attempts += 1
        a1, b1 = rng.choice(_BRANCH_ORDERS)
        a2, b2 = rng.choice(_BRANCH_ORDERS)
        x = (_branch_series(rng, a1), _branch_series(rng, a2))
        y = (_branch_series(rng, b1), _branch_series(rng, b2))
        try:
            ring = ring_from_generators(QQ, [x, y], window=14)
        except ValueError:
            continue
        if ring.delta > max_delta:
            continue
        sig = (ring.conductor, ring.delta,
               tuple(sorted(tuple(v) for v in _maximals_of(ring))))
        if sig in signatures:
            continue
        signatures.add(sig)
        germs.append(([x, y], ring))
    if len(germs) < count:
        raise RuntimeError("could not build enough random rings")
    return germs


def _maximals_of(ring):
    from weierforge.valsg2 import value_semigroup

    return value_semigroup(ring).maximals


@pytest.fixture(scope="session")
def germ_corpus():
    return random_gorenstein_germs(10)


@pytest.fixture(scope="session")
def ring_corpus(germ_corpus):
    return [ring for _generators, ring in germ_corpus]
