"""Hasse-Wronskians of linear systems of rational functions on the line.

A linear system is a tuple of linearly independent rational functions.  Its
order sequence is the lexicographically least (eps_i) making the rows
D^(eps_i) f_j independent over the function field; the wronskian is the
corresponding determinant.  Weights of points are orders of vanishing of
that determinant in a local trivialization.
"""

from __future__ import annotations

import math

from .exact import (
    INF,
    Polynomial,
    RationalFunction,
    _bareiss_insert,
    _from_ints,
    _hasse_mod_p,
    _signed_last_pivot,
    coprime_refinement,
    fraction_free_rank_det,
    place_key,
    scalar_echelon,
    shared_denominator,
)
from .padic import OrderSequence, binom_mod_p


class DependentFunctionsError(ValueError):
    """The given functions are linearly dependent over the base field."""


class LinearSystem:
    """Linearly independent rational functions over one field, held as
    polynomial numerators over one shared denominator D: f_j =
    numerators[j] / D, with D monic and no factor of D common to every
    numerator, so that D is the lcm of the reduced denominators.  The order
    sequence and the wronskian are computed from that form; functions are
    built from it on demand.  order_sequence stores _det, the determinant of
    the numerator rows over its scale, read off the last pivot of the
    elimination that chose the orders, so the wronskian is _det / D^s.
    """

    __slots__ = ("field", "denominator", "numerators", "_orders", "_det")

    def __init__(self, functions):
        functions = tuple(f if isinstance(f, RationalFunction) else RationalFunction(f)
                          for f in functions)
        if not functions:
            raise ValueError("empty linear system")
        if any(f.field != functions[0].field for f in functions):
            raise ValueError("mixed coefficient fields")
        self._set(*shared_denominator(functions))

    @classmethod
    def over(cls, denominator, numerators):
        """The system numerators[j] / denominator, for a monic denominator
        sharing no factor with every numerator (the caller's guarantee)."""
        V = cls.__new__(cls)
        V._set(denominator, numerators)
        return V

    def _set(self, denominator, numerators):
        if len(_pivots(numerators)) < len(numerators):
            raise DependentFunctionsError("functions are linearly dependent over the base field")
        self.field = denominator.field
        self.denominator = denominator
        self.numerators = tuple(numerators)
        self._orders = None
        self._det = None

    @property
    def functions(self):
        return tuple(RationalFunction(n, self.denominator) for n in self.numerators)

    @property
    def characteristic(self):
        return self.field.characteristic

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.numerators)


def _pivots(polys):
    """Pivot columns of the reduced echelon form of the coefficient vectors
    of polynomials, taken on their stored int lists: scaling a row by its
    denominator keeps them."""
    width = max(f.degree for f in polys) + 1
    return scalar_echelon([f._ints()[0] + (0,) * (width - 1 - f.degree) for f in polys],
                          polys[0].field.characteristic)[0]


def order_sequence(V):
    """Greedy-minimal (eps_i) with det(D^(eps_i) f_j) != 0.

    The order sequence does not change when every f_j is multiplied by the
    shared denominator D, and at it det(D^(eps_i)(n_j / D)) equals
    det(D^(eps_i) n_j) / D^s (Stoehr-Voloch), so the search and the
    wronskian both run on the polynomial rows D^(e) n_j.  With n_j = c_j / d_j
    stored as ints, column j is taken as D^(e) c_j: the scaling keeps the
    rank.  Each candidate row is inserted once into one fraction-free
    elimination (_bareiss_insert), which accepts e when the row is left
    nonzero; the signed last pivot is then the determinant of the rows, and
    divided by its scale (the product of the d_j) it is stored as V._det,
    unreduced: the wronskian is V._det / D^s.
    """
    if V._orders is not None:
        return V._orders
    s, p = len(V), V.characteristic
    cleared = [n._ints() for n in V.numerators]
    # past the largest numerator degree every row D^(e) n_j is zero
    top = max(n.degree for n in V.numerators)
    chosen = []
    pivots = []
    eps = -1
    while len(chosen) < s:
        eps += 1
        if eps > top:
            raise AssertionError("order sequence search exceeded its degree bound")
        if _bareiss_insert(pivots, [_hasse_mod_p(c, eps, p) for c, _d in cleared], p):
            chosen.append(eps)
    V._orders = OrderSequence(chosen, p)
    V._det = _from_ints(V.field, _signed_last_pivot(pivots), math.prod(d for _c, d in cleared))
    return V._orders


def wronskian(V, eps=None):
    """det(D^(eps_i) f_j); with eps omitted, at the order sequence of V
    (where it is nonzero).

    At the order sequence this is the determinant order_sequence stored,
    over D^s, reduced on each call; any other eps is fraction_free_rank_det
    on the rows of hasse_list entries, the zero function when they are
    dependent.
    """
    terms = None if eps is None else tuple(eps)    # eps may be an iterator
    if terms is None or order_sequence(V) == terms:
        order_sequence(V)
        return RationalFunction(V._det, V.denominator ** len(V))
    if len(terms) != len(V):
        raise ValueError("sequence length does not match the system dimension")
    if min(terms) < 0:
        raise ValueError("negative Hasse derivative order")
    hs = [f.hasse_list(max(terms)) for f in V.functions]
    return fraction_free_rank_det([[h[e] for h in hs] for e in terms])[1]


def vq_orders(V, q):
    """The s distinct orders at q of elements of the system, shifted so the
    least is 0.

    They are the orders of the span of the numerators: the pivot columns of
    their coefficient vectors in powers of t - q, or, at INF, of 1/t (the
    reversed vectors).
    """
    n = max(f.degree for f in V.numerators)
    pivots = _pivots([f.reversed_coeffs(n) if q is INF else f.shift(q) for f in V.numerators])
    return tuple(c - pivots[0] for c in pivots)


def differential_weight_at(V, q):
    """Weight at q of the system viewed as coefficients of differentials
    f_j(t) dt, sections of L = (regular differentials)(pole divisor).

    The wronskian section lives in L^s tensor omega^N, so its order at q is
    ord_q(W) - s*ord_q(local L generator) - N*ord_q(local omega
    generator), with dt generating omega at finite q and du = -dt/t^2 at
    INF; ord_q W = ord_q det - s*ord_q D is read off the unreduced
    W = det / D^s.  As D is the lcm of the reduced denominators, the least
    order of the f_j at a finite q is -ord_q D, so the weight there is
    ord_q det; at INF the least order of the f_j dt is
    deg D - (largest numerator degree) - 2.  The value is invariant under
    scaling the whole tuple by one rational function.
    """
    eps = order_sequence(V)
    if q is not INF:
        return V._det.root_multiplicity(q)
    top = max(n.degree for n in V.numerators)
    return len(V) * max(V.denominator.degree - 2, top) - V._det.degree - 2 * eps.N


def smooth_weight(V, q):
    """Weight at a smooth point, with the lower-bound certificate.

    Returns (weight, bound, attained) where bound = sum(eps_i(q) - eps_i)
    and attained reports whether det C(eps_j(q), eps_i) != 0 mod p, which
    by the smooth theory is equivalent to weight == bound.  In
    characteristic 0 the two always agree (checked).
    """
    eps = order_sequence(V)
    qorders = vq_orders(V, q)
    weight = differential_weight_at(V, q)
    bound = sum(a - b for a, b in zip(qorders, eps))
    p = V.characteristic
    attained = not p or len(scalar_echelon([[binom_mod_p(qo, e, p) for qo in qorders]
                                            for e in eps], p)[0]) == len(eps)
    if weight < bound or (weight == bound) != attained:
        raise AssertionError("smooth weight %d against bound %d, attained %s"
                             % (weight, bound, attained))
    return weight, bound, attained


def global_weight_total(s, degL, g, N):
    """Total weight, counting multiplicities: s*deg(L) + (2g-2)*N."""
    return s * degL + (2 * g - 2) * N


class WronskianDivisor:
    """Zero divisor of a wronskian section: (place, multiplicity) pairs where
    a place is a monic squarefree-refined polynomial factor or INF, and
    excluded_orders, ord_q W at each excluded point in the order given."""

    __slots__ = ("entries", "excluded_orders")

    def __init__(self, entries, excluded_orders):
        self.entries = tuple(entries)
        self.excluded_orders = tuple(excluded_orders)

    @property
    def degree(self):
        return sum(m * (1 if place is INF else place.degree)
                   for place, m in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return [{"factor": "inf" if place is INF else str(place),
                 "multiplicity": m,
                 "degree": 1 if place is INF else place.degree}
                for place, m in self.entries]


def weight_divisor(V, excluded_points=()):
    """All points of positive weight of the differential system, grouped by
    coprime polynomial places, excluding the given finite points and INF
    when listed.

    With W = det / D^s as order_sequence stores it, and D the lcm of the
    reduced denominators, the weight at a finite place is the order of det
    there (differential_weight_at).  Each excluded point, then each root in
    the field of what is left of D (a pole not excluded), is stripped from
    det and from D by repeated exact division by w t - u, which gives
    ord_q det and ord_q D; excluded_orders reads ord_q W off them.  What is
    left of det is refined into coprime places, together with the f_j's
    denominators when D keeps factors with no root in the field.
    """
    order_sequence(V)
    det, D, s, field = V._det, V.denominator, len(V), V.field
    finite = [field(q) for q in excluded_points if q is not INF]
    orders, weights = {INF: s * D.degree - det.degree}, []
    for q in dict.fromkeys(finite):
        (m, det), (k, D) = det.strip_root(q), D.strip_root(q)
        orders[q] = m - s * k
    for q in D.rational_roots():    # the poles left
        (m, det), (_k, D) = det.strip_root(q), D.strip_root(q)
        weights.append((Polynomial(field, [-q, 1]), m))
    # the f_j's denominators D / gcd(n_j, D) split D's places: each has one
    # order in every f_j
    dens = ([V.denominator.exact_div(V.denominator.gcd(n)) for n in V.numerators]
            if D.degree else [])
    for place in coprime_refinement([det] + dens):
        weights.append((place, det.multiplicity_of_factor(place)))
    entries = sorted(((place, w) for place, w in weights if w), key=lambda e: place_key(e[0]))
    if INF not in excluded_points:
        winf = differential_weight_at(V, INF)
        if winf < 0:
            raise AssertionError("negative weight at infinity")
        if winf > 0:
            entries.append((INF, winf))
    return WronskianDivisor(entries, [orders[q if q is INF else field(q)] for q in excluded_points])
