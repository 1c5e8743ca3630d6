"""Rational Gorenstein curves with declared singularities.

A curve is the projective line with finitely many local rings replaced by
subrings of their normalizations.  Dualizing differentials are computed by
residue linear algebra: a differential r(t) dt with poles bounded by the
conductor exponents at the singular preimages is dualizing exactly when,
at every singularity P and for every local function f,

    sum over branches Q of P of  Res_Q(f * r dt)  =  0.

Weierstrass weights then come out of the Hasse-Wronskian of the resulting
basis, and are cross-checked against closed-form expressions in the
semigroup invariants.
"""

from __future__ import annotations

import math
import operator

from .exact import (
    INF,
    Polynomial,
    RationalFunction,
    TruncationError,
    _from_ints,
    _mul_trunc,
    binomial,
    int_echelon,
    quotient_rows,
    scalar_ints,
    scalar_nullspace,
    series_det_order,
    span_reduce,
    window_ints,
)
from .numsg import NumericalSemigroup
from .padic import monomial_order_sequence
from .valsg2 import TwoBranchRing, _basis_rows, _product, closed_span
from . import wronski
from .wronski import LinearSystem, order_sequence, wronskian


class SolutionDimensionMismatch(ValueError):
    """The residue conditions did not cut out a space of dimension g;
    the singularity descriptors are non-Gorenstein or inconsistent."""


class GeneratorNotFound(RuntimeError):
    """No single basis element generates the dualizing sheaf at the point."""


class TotalMismatch(RuntimeError):
    """Computed weights do not add up to the expected global total; this is
    an internal consistency failure, never a user error."""


def point_str(point):
    return "inf" if point is INF else str(point)


def _parse_point(field, text):
    if text in ("inf", "infinity", "oo"):
        return INF
    return field(text if isinstance(text, str) else text)


# ---------------------------------------------------------------------------
# Singularity descriptors
# ---------------------------------------------------------------------------

class _Branch:
    """One analytic branch: a point of the line, a uniformizer s vanishing
    there, and the conductor exponent bounding dualizing pole orders."""

    __slots__ = ("location", "uniformizer", "conductor_exponent")

    def __init__(self, location, uniformizer, conductor_exponent):
        self.location = location
        self.uniformizer = uniformizer
        self.conductor_exponent = conductor_exponent


class _Singularity:
    """What the curve reads of a singular point: its branches, and a basis of
    its local ring modulo the conductor as int rows (residues over GF(p)),
    one block of c coordinates per branch, entry i of a block the
    coefficient of s^i.  The constructors below set both once."""

    def _place(self, field, locations, uniformizers, conductors):
        """Set the field, the locations and the branches, and return the
        uniformizers: by default t - q, or 1/t at INF, and each a degree-one
        map of the line vanishing to order one at its location."""
        t = Polynomial.variable(field)
        self.field, self.locations, self._branches = field, tuple(locations), []
        for q, u, c in zip(locations, uniformizers, conductors):
            if u is None:
                u = RationalFunction(Polynomial(field, [1]), t) if q is INF else RationalFunction(t - q)
            if u.num.degree > 1 or u.den.degree > 1:
                raise ValueError("uniformizer must be a degree-one map of the line")
            if u.valuation(q) != 1:
                raise ValueError("uniformizer must vanish to order one at the location")
            self._branches.append(_Branch(q, u, c))
        return tuple(br.uniformizer for br in self._branches)

    def branches(self):
        return self._branches


class MonomialSingularity(_Singularity):
    """Unibranch singularity whose local ring is spanned by uniformizer
    powers at the nongaps of a symmetric semigroup, plus the conductor
    tail."""

    def __init__(self, field, semigroup, location, uniformizer=None):
        if not semigroup.is_symmetric():
            raise ValueError("monomial singularity needs a symmetric semigroup")
        if semigroup.genus < 1:
            raise ValueError("semigroup of a singular point must have a gap")
        c = 2 * semigroup.genus
        (self.uniformizer,) = self._place(field, (location,), (uniformizer,), (c,))
        self.semigroup = semigroup
        self.location = location
        self.delta = semigroup.genus
        self._rows = [[int(i == n) for i in range(c)] for n in semigroup.small_elements()]

    def describe(self):
        return "monomial %s at %s" % (self.semigroup, point_str(self.location))


class UnibranchSingularity(_Singularity):
    """Unibranch singularity with an explicit basis of the local ring modulo
    the conductor, as truncated series in the uniformizer."""

    def __init__(self, field, basis, conductor_exponent, location, uniformizer=None):
        c = conductor_exponent
        (self.uniformizer,) = self._place(field, (location,), (uniformizer,), (c,))
        if c < 1:
            raise ValueError("conductor exponent must be positive")
        # every local ring has c <= 2 delta = 2 (c - n) for n basis elements,
        # with equality exactly when it is Gorenstein: a longer conductor is
        # refused before any series is expanded, and once the span checks
        # pass, c = 2n makes the value semigroup symmetric
        if basis and c > 2 * len(basis):
            raise ValueError("value semigroup is not symmetric: the ring is not Gorenstein")
        series, self._rows = _basis_rows(field, [(b,) for b in basis], (c,), (c,),
                                         ["basis series not known to the conductor exponent"])
        pivots, _echelon = closed_span(self._rows, (c,), (c,), field.characteristic)
        # the values below c are the leading exponents of the span: its pivots
        self.semigroup = NumericalSemigroup([n for n in range(1, c) if n not in pivots])
        self.basis = tuple(b for (b,) in series)
        self.conductor_exponent = c
        self.location = location
        self.delta = c - len(series)
        assert self.delta == self.semigroup.genus and self.semigroup.is_symmetric()

    def describe(self):
        return "unibranch (semigroup %s) at %s" % (self.semigroup, point_str(self.location))


class TwoBranchSingularity(_Singularity):
    """Two branches glued along a validated TwoBranchRing."""

    def __init__(self, ring, locations, uniformizers=(None, None)):
        if not isinstance(ring, TwoBranchRing):
            raise TypeError("expected a validated TwoBranchRing")
        q1, q2 = locations
        if q1 == q2 or (q1 is INF and q2 is INF):
            raise ValueError("branch locations must be distinct")
        self.uniformizers = self._place(ring.field, (q1, q2), uniformizers, ring.conductor)
        self.ring = ring
        self.delta = ring.delta
        self._rows = [window_ints(pair, ring.conductor, ring.field.characteristic)
                      for pair in ring.basis]

    def describe(self):
        return "two-branch (delta %d) at %s,%s" % (
            self.delta, point_str(self.locations[0]), point_str(self.locations[1]))


class RationalCurve:
    """The projective line with the given singularities; arithmetic genus is
    the sum of their delta invariants."""

    def __init__(self, field, singularities):
        singularities = tuple(singularities)
        if not singularities:
            raise ValueError("a rational Gorenstein curve of positive genus needs a singularity")
        self.field = field
        self.singularities = singularities
        locations = self.singular_locations()
        if len(set(point_str(q) for q in locations)) != len(locations):
            raise ValueError("singularity locations must be pairwise distinct")
        self.genus = sum(s.delta for s in singularities)
        self._dualizing_basis = None    # set by dualizing_basis

    @property
    def characteristic(self):
        return self.field.characteristic

    def singular_locations(self):
        return [q for s in self.singularities for q in s.locations]


# ---------------------------------------------------------------------------
# Dualizing differentials
# ---------------------------------------------------------------------------

class DualizingBasis:
    """Basis of global dualizing differentials tau_i = r_i(t) dt, with the
    index of a generator of the dualizing stalk at each singularity, the
    numerators of the r_i over the ansatz denominator as int lists, their
    window vectors at each singularity (_windows[si][i], as _ansatz lays
    them out) and the differentials as one LinearSystem, whose order
    sequence and wronskian every weight shares."""

    __slots__ = ("curve", "differentials", "generator_index", "numerators", "_windows",
                 "_system")

    def __init__(self, curve, differentials, generator_index, numerators, windows):
        self.curve = curve
        self.differentials = tuple(differentials)
        self.generator_index = dict(generator_index)
        self.numerators = tuple(numerators)
        self._windows = windows
        self._system = LinearSystem(self.differentials)

    def generator(self, singularity_index):
        return self.differentials[self.generator_index[singularity_index]]


def differential_order_at(r, point):
    """Order of r(t) dt at a point of the line: the valuation of r, shifted
    by -2 at INF where dt = -du/u^2."""
    v = r.valuation(point)
    return v - 2 if point is INF else v


def dualizing_basis(X):
    """Solve the residue conditions for the space of global dualizing
    differentials; its dimension must equal the arithmetic genus.

    The ansatz allows pole order up to the conductor exponent at each
    singular branch and regularity elsewhere (including the chart at
    infinity); each element of a basis of every local ring mod its
    conductor imposes one linear residue condition.  Built once per curve,
    the basis is stored on X after every check has passed.
    """
    if X._dualizing_basis is not None:
        return X._dualizing_basis
    field, p = X.field, X.characteristic
    denominator, windows = _ansatz(X)
    # sum over branches of Res(f t^k dt / D) = sum_i f_i [s^(-1-i)] of the
    # expansion: an int dot product of the window with f's blocks reversed
    rows = []
    for sing, ws in zip(X.singularities, windows):
        blocks = _blocks(sing)
        for row in sing._rows:
            f = [x for s, c in blocks for x in row[s:s + c][::-1]]
            rows.append([field(sum(a * b for a, b in zip(f, w))) for w in ws])

    null = scalar_nullspace(rows, len(windows[0]), field)
    if len(null) != X.genus:
        raise SolutionDimensionMismatch("residue conditions cut dimension %d, expected genus %d"
                                        % (len(null), X.genus))
    differentials = [RationalFunction(Polynomial(field, vec), denominator) for vec in null]
    numerators = [scalar_ints(vec, p)[0] for vec in null]
    local = _local_windows(windows, numerators, p)
    generator_index = {si: _find_generator(sing, local[si])
                       for si, sing in enumerate(X.singularities)}
    # order the basis by pole order at the first singularity, deepest first
    first = X.singularities[0].branches()[0]
    order = sorted(range(len(null)),
                   key=lambda i: differential_order_at(differentials[i], first.location))
    basis = DualizingBasis(X, [differentials[i] for i in order],
                           {si: order.index(gi) for si, gi in generator_index.items()},
                           [numerators[i] for i in order],
                           [[vs[i] for i in order] for vs in local])
    _verify_generators(X, basis)
    X._dualizing_basis = basis
    return basis


def _ansatz(X):
    """(D, windows): the ansatz is t^k dt / D, k < n; windows[si][k] holds
    its Laurent coefficients on [-c, 0) at the branches of singularity si
    (entry j of a block: s^(j - c)), one int vector over a denominator
    shared by the singularity (residues over GF(p)).  Each branch expands
    dt / D and t in s to c terms past their leading exponents, straight
    from the linear factors of D; t^(k+1) dt / D is the truncated product
    of t^k dt / D and t.
    """
    field, p = X.field, X.characteristic
    t = Polynomial.variable(field)
    denominator, inf_exponent, roots = Polynomial(field, [1]), 0, []
    for br in (br for sing in X.singularities for br in sing.branches()):
        if br.location is INF:
            inf_exponent = br.conductor_exponent
        else:
            roots.append((br.location, br.conductor_exponent))
            denominator = denominator * (t - br.location) ** br.conductor_exponent
    n = denominator.degree - 1 + inf_exponent
    if n < 1:
        raise SolutionDimensionMismatch("empty differential ansatz")
    windows = []
    for sing in X.singularities:
        parts = []
        for br in sing.branches():
            c = br.conductor_exponent
            (v, e, de), (vt, ts, dt) = _branch_series(br.uniformizer, roots, c, p)
            block = []
            for k in range(n):
                if v < -c:    # e holds s^v .. s^(v+c-1), short of s^-1
                    raise TruncationError("ansatz expansion known only below s^%d" % (v + c))
                block.append([e[j - v] * dt ** (n - 1 - k) if j >= v else 0 for j in range(-c, 0)])
                e, v = _mul_trunc(ts, e, c, p), v + vt
            parts.append((block, de * dt ** (n - 1)))
        d = math.lcm(*(dk for _block, dk in parts))
        windows.append([[x * (d // dk) for block, dk in parts for x in block[k]]
                        for k in range(n)])
    return denominator, windows


def _branch_series(u, roots, terms, p):
    """dt / D and t in the parameter s = u at its zero, as _expand results;
    D is the product of (t - q)^m over (q, m) in roots."""
    a, b = u.num.coefficient(1), u.num.coefficient(0)
    c, d = u.den.coefficient(1), u.den.coefficient(0)
    # s = (a t + b) / (c t + d) gives t = (d s - b) / (a - c s),
    # dt = (a d - b c) / (a - c s)^2 ds and
    # t - q = ((d + c q) s - (b + a q)) / (a - c s)
    degree = sum(m for _q, m in roots)
    return (_expand([(a * d - b * c, 0, 1), (a, -c, degree - 2)]
                    + [(-(b + a * q), d + c * q, -m) for q, m in roots], terms, p),
            _expand([(-b, d, 1), (a, -c, -1)], terms, p))


def _expand(factors, terms, p):
    """(v, c, d): the product of (beta + alpha s)^e over the factors is
    s^v (c[0] + c[1] s + ...) / d at s = 0, c its first terms as ints with
    no common factor with d > 0 (residues over GF(p), d = 1).  For beta
    nonzero the binomial series beta^e sum_k C(e, k) (alpha / beta)^k s^k
    takes C(e, k) as an integer, so nothing divides by k!."""
    v, out, den = 0, [1], 1
    for beta, alpha, e in factors:
        if beta:
            ratio, x, coeffs = alpha / beta, beta ** e, []
            for k in range(terms):
                coeffs.append(binomial(e, k) * x)
                x = x * ratio
        else:
            v, coeffs = v + e, [alpha ** e]
        c, dc = scalar_ints(coeffs, p)
        out, den = _mul_trunc(out, c, terms, p), den * dc
    g = math.gcd(den, *out)
    return v, [x // g for x in out] + [0] * (terms - len(out)), den // g


def _local_windows(windows, numerators, p):
    """Per singularity, the window vectors of (sum_k y_k t^k) dt / D, y in numerators."""
    out = []
    for ws in windows:
        vs = [[sum(a * b for a, b in zip(y, col)) for col in zip(*ws)] for y in numerators]
        out.append([[x % p for x in v] for v in vs] if p else vs)
    return out


def _blocks(sing):
    """(start, c) of each branch's block in a window vector."""
    cs = [br.conductor_exponent for br in sing.branches()]
    return [(sum(cs[:k]), c) for k, c in enumerate(cs)]


def _find_generator(sing, vectors):
    """Index of a differential with pole order exactly the conductor
    exponent on every branch: its window vector is nonzero at each s^-c."""
    for i, v in enumerate(vectors):
        if all(v[s] for s, _c in _blocks(sing)):
            return i
    raise GeneratorNotFound(
        "no basis differential generates the dualizing stalk at %s" % sing.describe())


def _verify_generators(X, basis):
    """The chosen generator tau must have a pole of order c, the deepest the
    ansatz allows, on every branch, and every ratio tau_j / tau must lie in
    the local ring.  With that pole no ratio has one, and the windows fix
    the ratios below s^c; multiplying by tau maps the local ring mod s^c
    onto the windows, so tau_j / tau lies in it iff tau_j lies in the span
    of the local basis rows times tau."""
    p = X.characteristic
    for si, sing in enumerate(X.singularities):
        vectors, blocks = basis._windows[si], _blocks(sing)
        gen = vectors[basis.generator_index[si]]
        cs = [c for _s, c in blocks]
        if all(gen[s] for s, _c in blocks):
            pivots, ech = int_echelon([_product(row, gen, cs, p) for row in sing._rows], p)
            if not any(any(span_reduce(pivots, ech, v, p)) for v in vectors):
                continue
        raise GeneratorNotFound(
            "the chosen differential does not generate the dualizing stalk at %s"
            % sing.describe())


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def singular_weight(X, singularity_index, basis):
    """Weight of a declared singularity:

        2 * delta * N + ord_P det(D^(eps_i) (tau_j / tau)),

    where tau generates the dualizing stalk at P and N is the sum of the
    orders of the full system.  With tau_j / tau = n_j / G (basis
    numerators) the determinant is det(P) / G^(N+s), P the int rows of
    exact.quotient_rows, and as tau / tau = 1 has column (G, 0, ..., 0) in
    P, det(P) is +-G times the minor on the other rows and columns, whose
    order at each branch is read from its rows as series in a local
    parameter (_local_order), never from its expansion.  The Hasse
    derivatives are taken in the global coordinate, so a branch at
    infinity (where dt has a double pole) contributes a term -2N.

    The order sequence is basis- and trivialization-independent: it is the
    full system's, computed once for the basis.
    """
    sing = X.singularities[singularity_index]
    orders = order_sequence(basis._system)
    # from the Hasse derivatives of tau_j / tau, not from the raw wronskian,
    # so weight_report's cross-check compares two independent computations
    gi = basis.generator_index[singularity_index]
    nums, G = basis.numerators, basis.numerators[gi]
    rows = quotient_rows(X.field, nums[:gi] + nums[gi + 1:], G, orders.terms[1:])
    G = _from_ints(X.field, G)
    k = orders.N + len(orders) - 1    # ord det(P) - (N+s) ord G = ord minor - k ord G
    weight = 2 * sing.delta * orders.N
    for br in sing.branches():
        order = _local_order(rows, br.location, X.characteristic)
        if br.location is INF:
            weight += order + k * G.degree - 2 * orders.N
        else:
            weight += order - k * G.root_multiplicity(br.location)
    return weight


def _local_order(rows, q, p):
    """ord_q of the determinant of polynomial rows, from their series in a
    local parameter x: t = (x + u) / w at q = u / w, every entry times one
    unit, w^top (top the largest degree bound d_r of a row); x = 1/t at INF,
    row r times x^d_r, so there the order is the one in x minus sum(d_r).
    The series are read mod x^K: K = 1 first (order 0, the common case,
    shows in the constant terms), then 8, doubled.  Below order K no block
    is zero mod x^K, and a nonzero det has degree at most sum(d_r)."""
    bounds = [max(map(len, row)) - 1 for row in rows]
    top, K, m = max(bounds, default=0), 1, p or None
    (u,), w = ((0,), 1) if q is INF else scalar_ints([q], p)
    if q is INF:
        rows = [[[0] * (d + 1 - len(f)) + f[::-1] for f in row] for row, d in zip(rows, bounds)]
    while True:
        local = rows
        if u:    # x^k in w^top f((x + u) / w) is sum_i C(i, k) u^(i-k) w^(top-i) f_i
            shift = [[math.comb(i, k) * pow(u, i - k, m) * pow(w, top - i, m)
                      for i in range(k, top + 1)] for k in range(min(K, top + 1))]
            local = [[[sum(map(operator.mul, s, f[k:])) for k, s in enumerate(shift)] for f in row]
                     for row in rows]
        try:
            return series_det_order(local, p, K) - (sum(bounds) if q is INF else 0)
        except TruncationError:
            if K > sum(bounds):
                raise TotalMismatch("trivialized wronskian vanished at the system orders") from None
            K = 8 if K == 1 else 2 * K


class WeightReport:
    """Full weight accounting for a curve: orders of the dualizing system,
    singular weights, the smooth wronskian divisor, and the global total."""

    __slots__ = ("curve", "orders", "N", "singular_weights", "smooth_divisor",
                 "total", "expected")

    def __init__(self, curve, orders, N, singular_weights, smooth_divisor,
                 total, expected):
        self.curve = curve
        self.orders = orders
        self.N = N
        self.singular_weights = singular_weights
        self.smooth_divisor = smooth_divisor
        self.total = total
        self.expected = expected

    def to_json(self):
        curve = self.curve
        return {
            "characteristic": curve.characteristic,
            "genus": curve.genus,
            "orders": list(self.orders.terms),
            "N": self.N,
            "weights": [
                {"location": "/".join(point_str(q) for q in sing.locations),
                 "weight": self.singular_weights[i]}
                for i, sing in enumerate(curve.singularities)],
            "smooth": self.smooth_divisor.to_json(),
            "total": self.total,
            "expected": self.expected,
        }


def weight_report(X):
    """Compute every Weierstrass weight on the curve and audit the total
    against (2g-2)(g+N)."""
    basis = dualizing_basis(X)
    g = X.genus
    V = basis._system
    eps = order_sequence(V)
    N = eps.N
    w_raw = wronskian(V)

    singular_weights = []
    for si, sing in enumerate(X.singularities):
        w = singular_weight(X, si, basis)
        # cross-check against the raw wronskian: the determinant of the
        # trivialized tuple is gen^(-s) times the raw one
        gen = basis.generator(si)
        direct = (sum(w_raw.valuation(br.location) for br in sing.branches())
                  - (g + N) * sum(gen.valuation(br.location) for br in sing.branches()))
        if direct != w:
            raise TotalMismatch(
                "singular weight disagreement at %s: %d vs %d"
                % (sing.describe(), w, direct))
        if w < 2 * sing.delta * N:
            raise TotalMismatch("weight below conductor lower bound")
        singular_weights.append(w)

    excluded = X.singular_locations()
    divisor = wronski.weight_divisor(V, excluded_points=excluded)
    total = sum(singular_weights) + divisor.degree
    expected = wronski.global_weight_total(g, 2 * g - 2, g, N)
    if total != expected:
        raise TotalMismatch("weights total %d, expected %d" % (total, expected))
    return WeightReport(X, eps, N, singular_weights, divisor, total, expected)


def smooth_weight_at(X, q):
    """Weight of a specific non-singular point of the curve."""
    if point_str(q) in map(point_str, X.singular_locations()):
        raise ValueError("point lies over a declared singularity; use singular_weight instead")
    return wronski.differential_weight_at(dualizing_basis(X)._system, q)


# ---------------------------------------------------------------------------
# Closed-form weights from semigroup data (characteristic 0 for the genus
# formulas; the monomial curve expressions hold in any characteristic)
# ---------------------------------------------------------------------------

def monomial_curve_weights(S, p):
    """Weights on the rational curve with a single monomial unibranch
    singularity with symmetric semigroup S, in characteristic p (0 allowed):

        W(P)     = sum(n_i - eps_i) + 2g * sum(eps_i)
        W(P_inf) = sum(l_{i+1} - 1 - eps_i)

    and no other Weierstrass points; the orders eps_i are those of the
    monomial morphism on the small elements n_i.
    """
    if not S.is_symmetric():
        raise ValueError("semigroup must be symmetric")
    g = S.genus
    small = S.small_elements()
    orders = monomial_order_sequence(small, p)
    w_p = sum(n - e for n, e in zip(small, orders)) + 2 * g * orders.N
    w_inf = sum(l - 1 - e for l, e in zip(S.gaps, orders))
    assert w_p + w_inf == (2 * g - 2) * (g + orders.N)
    return w_p, w_inf, orders


def unibranch_weight_formula(S, g, w_normalized=0):
    """Characteristic-0 weight of a unibranch singularity with value
    semigroup S on a curve of arithmetic genus g, given the weight
    w_normalized of the point over it on the partial normalization:

        delta*(g-1)*(g+1) - wt(S) + w_normalized.
    """
    return S.genus * (g - 1) * (g + 1) - S.weight() + w_normalized


def two_monomial_weights(S1, S2, case):
    """Characteristic-0 weights for a rational curve with exactly two
    monomial unibranch singularities, by mutual pole position of the two
    uniformizers:

    case 1: each uniformizer has its pole at the other singularity
            (their product is constant); no smooth Weierstrass points.
    case 2: only the first singularity sits at the pole of the other
            uniformizer; wt(S1) smooth points.
    case 3: neither does; wt(S1) + wt(S2) smooth points.
    """
    g = S1.genus + S2.genus
    base1 = S1.genus * (g - 1) * (g + 1) - S1.weight()
    base2 = S2.genus * (g - 1) * (g + 1) - S2.weight()
    if case == 1:
        w1, w2 = base1 + S2.weight(), base2 + S1.weight()
        smooth = 0
    elif case == 2:
        w1, w2 = base1 + S2.weight(), base2
        smooth = S1.weight()
    elif case == 3:
        w1, w2 = base1, base2
        smooth = S1.weight() + S2.weight()
    else:
        raise ValueError("case must be 1, 2 or 3")
    assert w1 + w2 + smooth == g ** 3 - g
    return w1, w2, smooth


def detect_two_singularity_case(X):
    """(case, first) from declared uniformizer data: the case tag for
    two_monomial_weights, and the index of the singularity it takes as S1
    (in case 2 the one at the pole of the other uniformizer)."""
    if len(X.singularities) != 2:
        raise ValueError("curve must have exactly two singularities")
    s1, s2 = X.singularities
    u1, u2 = s1.uniformizer, s2.uniformizer
    q1, q2 = s1.location, s2.location
    prod = u1 * u2
    if prod.num.degree == 0 and prod.den.degree == 0:
        return 1, 0
    if u2.valuation(q1) < 0:
        return 2, 0
    if u1.valuation(q2) < 0:
        return 2, 1
    return 3, 0


def smooth_count_formula(semigroups):
    """Characteristic-0 count of smooth Weierstrass points on a rational
    curve whose unibranch singularities have these semigroups, assuming no
    point over a singularity is a Weierstrass point of the partial
    normalization: sum of the semigroup weights."""
    return sum(S.weight() for S in semigroups)
