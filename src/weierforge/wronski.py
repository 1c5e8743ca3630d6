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
    RationalFunction,
    _bareiss_mod_p,
    _cleared,
    _from_ints,
    _hasse_mod_p,
    _homogeneous,
    _horner,
    coprime_refinement,
    int_echelon,
    quotient_det,
    scalar_det,
    shared_denominator,
)
from .padic import OrderSequence, binom_mod_p


class DependentFunctionsError(ValueError):
    """The given functions are linearly dependent over the base field."""


class LinearSystem:
    """Tuple of linearly independent rational functions over one field.

    The system is also held as polynomial numerators over one shared
    denominator, f_j = numerators[j] / denominator; the order sequence and
    the wronskian are computed from that form.
    """

    __slots__ = ("functions", "field", "denominator", "numerators",
                 "_orders", "_wronskian")

    def __init__(self, functions):
        functions = tuple(f if isinstance(f, RationalFunction) else RationalFunction(f)
                          for f in functions)
        if not functions:
            raise ValueError("empty linear system")
        field = functions[0].field
        if any(f.field != field for f in functions):
            raise ValueError("mixed coefficient fields")
        denominator, numerators = shared_denominator(functions)
        if len(_pivots(numerators)) < len(functions):
            raise DependentFunctionsError("functions are linearly dependent over the base field")
        self.functions = functions
        self.field = field
        self.denominator = denominator
        self.numerators = tuple(numerators)
        self._orders = None
        self._wronskian = None

    @property
    def characteristic(self):
        return self.field.characteristic

    @property
    def dimension(self):
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)


def _pivots(polys):
    """Pivot columns of the reduced echelon form of the coefficient vectors
    of polynomials, taken on their stored int lists: scaling a row by its
    denominator keeps them."""
    width = max(f.degree for f in polys) + 1
    return int_echelon([f._ints()[0] + (0,) * (width - 1 - f.degree) for f in polys],
                       polys[0].field.characteristic)[0]


def order_sequence(V):
    """Greedy-minimal (eps_i) with det(D^(eps_i) f_j) != 0, verified by a
    final determinant evaluation.

    The order sequence does not change when every f_j is multiplied by the
    shared denominator D, and at it det(D^(eps_i)(n_j / D)) equals
    det(D^(eps_i) n_j) / D^s (Stoehr-Voloch), so the search and the
    wronskian both run on the polynomial rows D^(e) n_j.  With n_j = c_j / d_j
    stored as ints, column j is taken as D^(e) c_j: the scaling keeps the
    rank, and the determinant is divided by the product of the d_j.
    """
    if V._orders is not None:
        return V._orders
    s, p = len(V), V.characteristic
    cleared = [n._ints() for n in V.numerators]
    # generous search cap; can never bind for independent functions
    spread = sum(f.num.degree + f.den.degree for f in V.functions) + s + 2
    chosen = []
    accepted = []
    eps = -1
    while len(chosen) < s:
        eps += 1
        if chosen and eps > chosen[-1] + spread:
            raise AssertionError("order sequence search exceeded its degree bound")
        row = [_hasse_mod_p(c, eps, p) for c, _d in cleared]
        if _extends_rank(accepted, row, p):
            chosen.append(eps)
            accepted.append(row)
    orders = OrderSequence(chosen, p)
    rank, det, sign, _order = _bareiss_mod_p([list(r) for r in accepted], p)
    if rank < s:
        raise AssertionError("greedy order sequence failed determinant verification")
    V._orders = orders
    V._wronskian = RationalFunction(_from_ints(V.field, [x * sign for x in det],
                                               math.prod(d for _c, d in cleared)),
                                    V.denominator ** s)
    return orders


def _extends_rank(accepted, row, p):
    """Does the int polynomial row extend the row span over the function
    field?  Full rank of the values at t = 2..7 over QQ, or at the first six
    residues over GF(p), is a one-sided certificate of independence;
    fraction-free elimination decides the remaining cases."""
    rows = accepted + [row]
    for x in range(min(p, 6)) if p else range(2, 8):
        values = [[_horner(c, x, p) if p else _homogeneous(c, x, 1) for c in r] for r in rows]
        if len(int_echelon(values, p)[0]) == len(rows):
            return True
    return _bareiss_mod_p([list(r) for r in rows], p)[0] == len(rows)


def wronskian(V, eps=None):
    """det(D^(eps_i) f_j); with eps omitted, at the order sequence of V
    (where it is nonzero).

    At the order sequence this is the value order_sequence computed from
    the numerators; any other eps goes through hasse_wronskian.
    """
    if eps is None or order_sequence(V) == tuple(eps):
        order_sequence(V)
        return V._wronskian
    return hasse_wronskian(V, eps)


def hasse_wronskian(V, eps):
    """det(D^(eps_i) f_j) at any eps from the Hasse derivatives of the
    quotients f_j = n_j / D, not from the numerator route: det(P) / D^(N+s)
    on the rows P of quotient_det, N + s the sum of the eps_i + 1."""
    terms = tuple(eps)
    if len(terms) != len(V):
        raise ValueError("sequence length does not match the system dimension")
    if min(terms) < 0:
        raise ValueError("negative Hasse derivative order")
    (*numerators, G), _d = _cleared(V.numerators + (V.denominator,))
    return RationalFunction(_from_ints(V.field, quotient_det(V.field, numerators, G, terms)),
                            _from_ints(V.field, G) ** sum(e + 1 for e in terms))


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
    ord_q(det) - s*ord_q(local L generator) - N*ord_q(local omega
    generator), with dt generating omega at finite q and du = -dt/t^2 at
    INF.  The value is invariant under scaling the whole tuple by one
    rational function.
    """
    eps = order_sequence(V)
    w = wronskian(V)
    s = len(V)
    if q is INF:
        pole = min(0, min(f.valuation(INF) for f in V.functions) - 2)
        return w.valuation(INF) - s * (pole + 2) - 2 * eps.N
    pole = min(0, min(f.valuation(q) for f in V.functions))
    return w.valuation(q) - s * pole


def smooth_weight(V, q):
    """Weight at a smooth point, with the lower-bound certificate.

    Returns (weight, bound, attained) where bound = sum(eps_i(q) - eps_i)
    and attained reports whether det C(eps_j(q), eps_i) != 0 mod p, which
    by the smooth theory is equivalent to weight == bound.  In
    characteristic 0 the two always agree (asserted).
    """
    eps = order_sequence(V)
    qorders = vq_orders(V, q)
    weight = differential_weight_at(V, q)
    bound = sum(a - b for a, b in zip(qorders, eps))
    p = V.characteristic
    if p == 0:
        attained = True
    else:
        from .exact import GF
        field = GF(p)
        matrix = [[field(binom_mod_p(qo, e, p)) for qo in qorders] for e in eps]
        attained = bool(scalar_det(matrix))
    if p == 0:
        assert weight == bound
    else:
        assert weight >= bound
        assert (weight == bound) == attained
    return weight, bound, attained


def global_weight_total(s, degL, g, N):
    """Total weight, counting multiplicities: s*deg(L) + (2g-2)*N."""
    return s * degL + (2 * g - 2) * N


class WronskianDivisor:
    """Zero divisor of a wronskian section: (place, multiplicity) pairs where
    a place is a monic squarefree-refined polynomial factor or INF."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

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

    Candidate places are the zeros and poles of the wronskian and the poles
    of the functions; everywhere else the weight vanishes.
    """
    eps = order_sequence(V)
    w = wronskian(V)
    s = len(V)
    candidates = [w.num, w.den] + [f.den for f in V.functions]
    places = coprime_refinement(candidates)
    field = V.field
    excluded_finite = [p for p in excluded_points if p is not INF]
    entries = []
    for place in places:
        if place.degree == 1 and any(place.root_multiplicity(pt) for pt in excluded_finite):
            continue
        pole = min(0, min(f.multiplicity_of_factor(place) for f in V.functions))
        weight = w.multiplicity_of_factor(place) - s * pole
        if weight < 0:
            raise AssertionError("negative weight at a non-excluded place")
        if weight > 0:
            entries.append((place, weight))
    if INF not in excluded_points:
        winf = differential_weight_at(V, INF)
        if winf < 0:
            raise AssertionError("negative weight at infinity")
        if winf > 0:
            entries.append((INF, winf))
    return WronskianDivisor(entries)
