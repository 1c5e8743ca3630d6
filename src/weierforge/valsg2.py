"""Two-branch local rings inside k[[t]] x k[[u]] and their value semigroups.

A ring is presented by a basis of its image modulo the conductor ideal
C = t^xi1 k[[t]] x u^xi2 k[[u]] together with the conductor exponents.
The value semigroup S = {(v1(f), v2(f))} is computed from a table of
dimensions of the subspaces V(x,y) = {f : v1(f) >= x, v2(f) >= y}: a point
lies in S exactly when both one-step restrictions drop the dimension,
since a vector space is never the union of two proper subspaces.
"""

from __future__ import annotations

from .exact import (
    INF,
    RationalFunction,
    TruncatedSeries,
    _dot_mod_p,
    _from_ints,
    _mul_trunc,
    _primitive,
    echelon_insert,
    field_rows,
    int_echelon,
    scalar_echelon,
    span_reduce,
    triangular_insert,
    window_ints,
)
from .numsg import NumericalSemigroup


class NotClosed(ValueError):
    """The declared basis span is not closed under multiplication mod C."""


class NotGorenstein(ValueError):
    """dim(normalization/conductor) differs from twice the delta invariant."""


class EliminationStuck(RuntimeError):
    """Value-echelon elimination cannot reach the configuration promised by
    the adapted-basis theorem; the descriptor is inconsistent."""


class TwoBranchRing:
    """Validated local ring given by basis-mod-conductor series pairs."""

    __slots__ = ("field", "basis", "conductor", "delta", "gorenstein", "_window", "_echelon")

    def __init__(self, field, basis, conductor, delta, gorenstein, window, echelon):
        self.field = field
        self.basis = tuple(basis)
        self.conductor = tuple(conductor)
        self.delta = delta
        self.gorenstein = gorenstein
        self._window = window
        # (pivots, rows): reduced echelon form of the basis and the
        # conductor tail inside the window
        self._echelon = echelon

    def to_json(self):
        return {
            "characteristic": self.field.characteristic,
            "conductor": list(self.conductor),
            "delta": self.delta,
            "gorenstein": self.gorenstein,
            "basis": [[_series_coeff_strings(bt, self.conductor[0] + 2),
                       _series_coeff_strings(bu, self.conductor[1] + 2)]
                      for bt, bu in self.basis],
        }


def _series_coeff_strings(s, upto):
    return [str(s.coefficient(i)) for i in range(min(upto, s.truncation if s.truncation is not None else upto))]


def validate_ring(field, basis_pairs, conductor, strict=True):
    """Check a declared two-branch ring and compute its delta invariant.

    basis_pairs: (t-side series, u-side series) pairs spanning the ring
    modulo C; each side must be known out to its conductor exponent.
    With strict=True a failed Gorenstein dimension count raises; otherwise
    the ring is admitted flagged non-Gorenstein (semigroup-only analysis).
    """
    xi1, xi2 = conductor
    if xi1 < 1 or xi2 < 1:
        raise ValueError("conductor exponents must be positive")
    # dim(normalization/conductor) <= 2 delta for every ring, with equality
    # exactly when it is Gorenstein, so the count needs no expansion.  A ring
    # failing it is refused first (as not Gorenstein when strict) if a
    # conductor exponent lies past every coefficient its branch is given,
    # where the windows would cost time in xi rather than in the input.
    delta = (xi1 + xi2) - len(basis_pairs)
    gorenstein = (xi1 + xi2) == 2 * delta
    refusal = None if gorenstein else NotGorenstein(
        "dim(normalization/conductor) = %d differs from 2*delta = %d" % (xi1 + xi2, 2 * delta))
    if refusal and basis_pairs and any(
            xi > max(_extent(pair[k]) for pair in basis_pairs) for k, xi in enumerate(conductor)):
        raise refusal if strict else ValueError(
            "conductor: past every coefficient given on its branch; extend the basis series to it")
    w1, w2 = xi1 + 2, xi2 + 2
    basis, vectors = _basis_rows(field, basis_pairs, conductor, (w1, w2), [
        "%s-branch series not known to order %d" % side for side in zip(("first", "second"),
                                                                        conductor)])
    if any(v[0] != v[w1] for v in vectors):
        raise ValueError("branch constant terms differ: the ring would not be local")
    p = field.characteristic
    pivots, ech = closed_span(vectors, (xi1, xi2), (w1, w2), p)
    if delta < 1:
        raise ValueError("delta invariant must be at least 1")
    if refusal and strict:
        raise refusal
    return TwoBranchRing(field, basis, (xi1, xi2), delta, gorenstein, (w1, w2),
                         (pivots, field_rows(pivots, ech, p)))


def _extent(s):
    """How many coefficients a series or coefficient list spells out."""
    return s.offset + len(s.coeffs) if isinstance(s, TruncatedSeries) else len(s)


def _basis_rows(field, elements, conductor, windows, short):
    """(series, rows) for a basis of a local ring modulo its conductor, each
    element given as one series or coefficient list per branch: the series
    cut below the conductor exponents, known to the windows, and their int
    rows (residues over GF(p)), one block of windows[k] coordinates per
    branch.  short[k] is the error for a series on branch k known to fewer
    terms than its conductor exponent."""
    series = []
    for element in elements:
        cut = []
        for s, xi, w, message in zip(element, conductor, windows, short):
            if not isinstance(s, TruncatedSeries):
                s = TruncatedSeries(field, 0, list(s), None)
            if s.truncation is not None and s.truncation < xi:
                raise ValueError(message)
            cut.append(TruncatedSeries(field, 0, [s.coefficient(i) for i in range(xi)], w))
        series.append(tuple(cut))
    return series, [window_ints(e, windows, field.characteristic) for e in series]


def closed_span(vectors, conductor, windows, p):
    """Check a basis of a local ring modulo its conductor ideal C, given as
    int vectors over GF(p) (ZZ for p = 0) with one block of windows[k]
    coordinates per branch: it must be independent, hold 1 and be closed
    under multiplication mod C, and no branch's conductor exponent may be
    smaller than declared.  Returns the reduced echelon form (pivots, int
    rows) of its span and the conductor tail inside the windows.
    """
    if not vectors:    # before any window is built: they may be long
        raise ValueError("ring does not contain 1")
    n = sum(windows)
    starts = [sum(windows[:k]) for k in range(len(windows))]
    pivots, ech = int_echelon(vectors, p)
    if len(pivots) != len(vectors):
        raise ValueError("basis is linearly dependent modulo the conductor")
    for s, xi, w in zip(starts, conductor, windows):
        for j in range(s + xi, s + w):
            echelon_insert(pivots, ech, [int(i == j) for i in range(n)], p)

    def contains(vec):
        return not any(span_reduce(pivots, ech, vec, p))

    if not contains([int(j in starts) for j in range(n)]):
        raise ValueError("ring does not contain 1")
    for i, a in enumerate(vectors):
        for b in vectors[i:]:
            if not contains(_product(a, b, windows, p)):
                raise NotClosed("basis span is not closed under multiplication mod C")
    for k, (s, xi) in enumerate(zip(starts, conductor)):
        if contains([int(i == s + xi - 1) for i in range(n)]):
            raise ValueError("declared conductor exponent on branch %d is not minimal" % (k + 1))
    return pivots, ech


def _product(a, b, windows, p):
    """Product of two int vectors block by block, each block the product
    truncated to its window; over ZZ divided by its content, which leaves
    span membership unchanged."""
    v, s = [], 0
    for w in windows:
        v += _mul_trunc(a[s:s + w], b[s:s + w], w, p)
        s += w
    return v if p else _primitive(v)


class ValueSemigroup2:
    """Value semigroup of a two-branch ring: window points, fibers, maximal
    points, conductor, and the two branch projections."""

    __slots__ = ("ring", "conductor", "finite_points", "infinite_vertical",
                 "infinite_horizontal", "maximals", "S1", "S2")

    def __init__(self, ring, conductor, finite_points, infinite_vertical,
                 infinite_horizontal, maximals, S1, S2):
        self.ring = ring
        self.conductor = conductor
        self.finite_points = finite_points
        self.infinite_vertical = infinite_vertical
        self.infinite_horizontal = infinite_horizontal
        self.maximals = maximals
        self.S1 = S1
        self.S2 = S2

    @property
    def I(self):
        return len(self.maximals)

    @property
    def delta1(self):
        return self.S1.genus

    @property
    def delta2(self):
        return self.S2.genus

    @property
    def delta(self):
        return self.ring.delta

    @property
    def mu(self):
        return (self.conductor[0] - 1, self.conductor[1] - 1)

    def __contains__(self, point):
        x, y = point
        if x < 0 or y < 0:
            return False
        xi1, xi2 = self.conductor
        if x <= xi1 and y <= xi2:
            return (x, y) in self.finite_points
        if x > xi1 and y > xi2:
            return True
        if y > xi2:
            return x in self.infinite_vertical
        return y in self.infinite_horizontal

    def exists_above(self, x, y):
        """Is there a semigroup point (x, y') with y' > y?"""
        xi1, xi2 = self.conductor
        if x < 0:
            return False
        if x > xi1 or x in self.infinite_vertical:
            return True
        return any(py > y for (px, py) in self.finite_points if px == x)

    def exists_right(self, x, y):
        xi1, xi2 = self.conductor
        if y < 0:
            return False
        if y > xi2 or y in self.infinite_horizontal:
            return True
        return any(px > x for (px, py) in self.finite_points if py == y)

    def delta_set_empty(self, x, y):
        """True when no semigroup point lies strictly above or strictly to
        the right of (x, y)."""
        return not self.exists_above(x, y) and not self.exists_right(x, y)

    def to_json(self):
        return {
            "maximals": [list(m) for m in self.maximals],
            "conductor": list(self.conductor),
            "I": self.I,
            "delta": self.delta,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "S1": self.S1.to_json(),
            "S2": self.S2.to_json(),
            "symmetric": symmetry_check(self)[0],
        }


def value_semigroup(ring):
    """Compute the value semigroup from the dimension table of the spaces
    V(x,y) = {f in O : v1(f) >= x, v2(f) >= y}."""
    xi1, xi2 = ring.conductor
    w1 = ring._window[0]
    pivots, rows = ring._echelon
    # V(x,0) is spanned by the echelon rows with pivot >= x; inside it, each
    # pivot of their u-window echelon below y is one more condition of V(x,y)
    dim = {}
    for x in range(xi1 + 2):
        u_rows = [r[w1:] for pc, r in zip(pivots, rows) if pc >= x]
        u_pivots = scalar_echelon(u_rows)[0]
        for y in range(xi2 + 2):
            dim[(x, y)] = len(u_rows) - sum(1 for pc in u_pivots if pc < y)

    finite_points = {(x, y) for x in range(xi1 + 1) for y in range(xi2 + 1)
                     if dim[(x, y)] > dim[(x + 1, y)] and dim[(x, y)] > dim[(x, y + 1)]}
    infinite_vertical = {x for x in range(xi1 + 1) if dim[(x, xi2)] > dim[(x + 1, xi2)]}
    infinite_horizontal = {y for y in range(xi2 + 1) if dim[(xi1, y)] > dim[(xi1, y + 1)]}

    # declared conductor is minimal (cross-check with validate_ring)
    assert (xi1 - 1) not in infinite_vertical or xi1 == 0
    assert (xi2 - 1) not in infinite_horizontal or xi2 == 0

    maximals = [(x, y) for (x, y) in sorted(finite_points)
                if x not in infinite_vertical and y not in infinite_horizontal
                and not any((x, y2) in finite_points for y2 in range(y + 1, xi2 + 1))
                and not any((x2, y) in finite_points for x2 in range(x + 1, xi1 + 1))]

    s1_vals = {x for (x, _y) in finite_points} | infinite_vertical
    s2_vals = {y for (_x, y) in finite_points} | infinite_horizontal
    S1 = NumericalSemigroup([n for n in range(1, xi1) if n not in s1_vals])
    S2 = NumericalSemigroup([n for n in range(1, xi2) if n not in s2_vals])

    return ValueSemigroup2(ring, (xi1, xi2), frozenset(finite_points),
                           frozenset(infinite_vertical), frozenset(infinite_horizontal),
                           tuple(maximals), S1, S2)


def symmetry_check(S2):
    """Conductor-mirror symmetry: (x,y) in S iff nothing of S sits strictly above or
    right of mu - (x,y); and maximals map to maximals under m -> mu - m.

    Returns (True, None) or (False, witness).
    """
    xi1, xi2 = S2.conductor
    mu = S2.mu
    for x in range(-1, xi1 + 1):
        for y in range(-1, xi2 + 1):
            member = (x, y) in S2
            mirror_empty = S2.delta_set_empty(mu[0] - x, mu[1] - y)
            if member != mirror_empty:
                return False, ("property 1", (x, y))
    for m in S2.maximals:
        mirror = (mu[0] - m[0], mu[1] - m[1])
        if mirror not in S2 or not S2.delta_set_empty(*mirror):
            return False, ("property 2", m)
    return True, None


class EdgePoints:
    """Points of S on the top and right edges of the conductor rectangle,
    with the gap-set and symmetric-form descriptions for cross-checking."""

    __slots__ = ("top", "right", "top_from_gaps", "right_from_gaps",
                 "top_symmetric_form", "right_symmetric_form")

    def __init__(self, top, right, top_from_gaps, right_from_gaps,
                 top_symmetric_form, right_symmetric_form):
        self.top = top
        self.right = right
        self.top_from_gaps = top_from_gaps
        self.right_from_gaps = right_from_gaps
        self.top_symmetric_form = top_symmetric_form
        self.right_symmetric_form = right_symmetric_form


def edge_points(S2):
    """Top edge: (x, xi2) in S with x < xi1 (the infinite vertical fibers);
    right edge likewise.  Gap-based form: x = xi1 - 1 - l over gaps l of S1.
    When a projection is symmetric, also the form (I + m_j, xi2) over its
    small elements."""
    xi1, xi2 = S2.conductor
    top = sorted((x, xi2) for x in S2.infinite_vertical if x < xi1)
    right = sorted((xi1, y) for y in S2.infinite_horizontal if y < xi2)
    top_gaps = sorted((xi1 - 1 - l, xi2) for l in S2.S1.gaps)
    right_gaps = sorted((xi1, xi2 - 1 - l) for l in S2.S2.gaps)
    top_sym = None
    if S2.S1.is_symmetric():
        top_sym = sorted((S2.I + m, xi2) for m in S2.S1.nongaps_below_conductor())
    right_sym = None
    if S2.S2.is_symmetric():
        right_sym = sorted((xi1, S2.I + n) for n in S2.S2.nongaps_below_conductor())
    return EdgePoints(top, right, top_gaps, right_gaps, top_sym, right_sym)


def two_branch_weight_formula(S2, g, w_v1, w_v2):
    """Weight of a two-branch singularity on a genus-g curve in
    characteristic 0:

        delta(g-1)(g+1) - I(g-1) - wt(S1) - wt(S2) + W_V1(Q1) + W_V2(Q2).

    With one branch pair trivial this degenerates to the node value
    (g-1)g + W(Q1) + W(Q2).
    """
    return (S2.delta * (g - 1) * (g + 1) - S2.I * (g - 1)
            - S2.S1.weight() - S2.S2.weight() + w_v1 + w_v2)


def expected_smooth_count(S2, g):
    """Smooth Weierstrass points, counting multiplicity, on a rational curve
    whose only singularity is this one and is not overweight:
    I(g-1) + wt(S1) + wt(S2)."""
    return S2.I * (g - 1) + S2.S1.weight() + S2.S2.weight()


# ---------------------------------------------------------------------------
# Adapted differential bases
# ---------------------------------------------------------------------------

class AdaptedBasis:
    """Dualizing differentials echelonized by value pairs at a two-branch
    singularity: one differential per maximal point with that exact value
    pair, one per top-edge point (exact first value, second at least xi2),
    one per right-edge point (first at least xi1, exact second value)."""

    __slots__ = ("differentials", "value_pairs", "maximal_indices",
                 "top_edge_indices", "right_edge_indices", "generator_index")

    def __init__(self, differentials, value_pairs, maximal_indices,
                 top_edge_indices, right_edge_indices, generator_index):
        self.differentials = tuple(differentials)
        self.value_pairs = tuple(value_pairs)
        self.maximal_indices = dict(maximal_indices)
        self.top_edge_indices = dict(top_edge_indices)
        self.right_edge_indices = dict(right_edge_indices)
        self.generator_index = generator_index


def adapted_basis(X):
    """Adapted dualizing basis for a rational curve whose only singularity
    is two-branch: Gaussian elimination on value pairs, raising the order on
    the second branch by subtracting differentials of larger first-branch
    order until every target value is met.

    A differential is carried as its coefficient vector over the dualizing
    basis and its window vector at the singularity.  Divided by the
    generator, whose pole on each branch is the conductor exponent c, it has
    value j on a branch whose block first holds a nonzero entry at j, and a
    value at or past c (kept as c) where the block is zero; two differentials
    of one value cancel by the ratio of their window entries there.  The
    exact value past the conductor is read from the assembled numerator.
    """
    from .curve import dualizing_basis

    sing = _single_two_branch(X)
    S2 = value_semigroup(sing.ring)
    xi1, xi2 = S2.conductor
    basis = dualizing_basis(X)
    p, g = X.characteristic, len(basis.numerators)
    blocks = ((g, xi1), (g + xi1, xi2))    # (start, c) of each branch's window block

    def nu(vec):
        return tuple(next((j for j in range(c) if vec[s + j]), c) for s, c in blocks)

    def cancel(item, other, branch):
        """Subtract the multiple of other sharing item's leading term on the branch."""
        j = blocks[branch][0] + item[1][branch]
        v, w = item[0], other[0]
        if p:
            f = v[j] * pow(w[j], -1, p)
            v = [(x - f * y) % p for x, y in zip(v, w)]
        else:
            v = _primitive([w[j] * x - v[j] * y for x, y in zip(v, w)])
        if not any(v[:g]):
            raise EliminationStuck("dependent differentials in value elimination")
        item[:] = v, nu(v)

    work = []
    for k, window in enumerate(basis._windows[0]):
        vec = [int(i == k) for i in range(g)] + window
        work.append([vec, nu(vec)])

    # echelonize first-branch values below xi1, then among the rest
    # second-branch values below xi2: each item in turn is reduced against
    # the earlier holder of its value until that value is new
    by_v1 = {}
    for item in work:
        while item[1][0] in by_v1:
            cancel(item, by_v1[item[1][0]], 0)
        if item[1][0] < xi1:
            by_v1[item[1][0]] = item
    by_v2 = {}
    for item in work:
        if item[1][0] < xi1:
            continue
        while item[1][1] in by_v2:
            cancel(item, by_v2[item[1][1]], 1)
        if item[1][1] >= xi2:
            raise EliminationStuck(
                "differential with values beyond the conductor on both branches")
        by_v2[item[1][1]] = item

    maximal_x = {a: b for a, b in S2.maximals}
    top_edge_x = {x for (x, _y) in edge_points(S2).top}

    # raise second-branch values, working down the first-branch order
    fixed = [item for item in work if item[1][0] >= xi1]
    pending = sorted((item for item in work if item[1][0] < xi1),
                     key=lambda it: -it[1][0])
    for item in pending:
        v1 = item[1][0]
        if v1 in maximal_x:
            target = maximal_x[v1]
            exact = True
        elif v1 in top_edge_x:
            target = xi2
            exact = False
        else:
            raise EliminationStuck(
                "first-branch value %d is neither maximal nor a top-edge point" % v1)
        while item[1][1] < target:
            v2 = item[1][1]
            partner = next((f for f in fixed
                            if f[1][0] > v1 and f[1][1] == v2), None)
            if partner is None:
                raise EliminationStuck(
                    "no partner to raise the second-branch value past %d" % v2)
            cancel(item, partner, 1)
        if exact and item[1][1] != target:
            raise EliminationStuck(
                "second-branch value overshot the maximal point (%d, %d)" % (v1, target))
        fixed.append(item)

    # each result is one numerator combination over the ansatz denominator,
    # the shared denominator of the basis (every generator has the full pole)
    field, D = X.field, basis._system.denominator
    nums, gen = basis.numerators, basis.numerators[basis.generator_index[0]]

    def order(num, q):
        f = _from_ints(field, num)
        return -f.degree if q is INF else f.root_multiplicity(q)

    differentials = []
    value_pairs = []
    maximal_indices = {}
    top_indices = {}
    right_indices = {}
    generator_index = None
    for idx, (vec, pair) in enumerate(fixed):
        num = _dot_mod_p([[c] for c in vec[:g]], nums, p)
        differentials.append(RationalFunction(_from_ints(field, num), D))
        pair = tuple(v if v < c else order(num, q) - order(gen, q)
                     for v, (_s, c), q in zip(pair, blocks, sing.locations))
        value_pairs.append(pair)
        if pair[0] < xi1 and pair[0] in maximal_x:
            maximal_indices[(pair[0], maximal_x[pair[0]])] = idx
            if pair == (0, 0):
                generator_index = idx
        elif pair[0] < xi1:
            top_indices[pair[0]] = idx
        else:
            right_indices[pair[1]] = idx
    if generator_index is None:
        raise EliminationStuck("no differential with value pair (0, 0)")
    if len(maximal_indices) != S2.I:
        raise EliminationStuck("value elimination missed a maximal point")
    if len(top_indices) != S2.delta1 or len(right_indices) != S2.delta2:
        raise EliminationStuck("value elimination missed an edge point")
    return AdaptedBasis(differentials, value_pairs, maximal_indices,
                        top_indices, right_indices, generator_index)


def v_systems_weights(X):
    """(W_V1(Q1), W_V2(Q2)) for a rational curve whose only singularity is
    two-branch: V1 is spanned by the right-edge differentials (regular at
    Q1), V2 by the top-edge differentials (regular at Q2).  Degenerate spans
    give weight 0.
    """
    from .wronski import LinearSystem, differential_weight_at

    sing = _single_two_branch(X)
    adapted = adapted_basis(X)
    q1, q2 = sing.locations
    w1 = 0
    if adapted.right_edge_indices:
        V1 = LinearSystem([adapted.differentials[i]
                           for i in sorted(adapted.right_edge_indices.values())])
        w1 = differential_weight_at(V1, q1)
    w2 = 0
    if adapted.top_edge_indices:
        V2 = LinearSystem([adapted.differentials[i]
                           for i in sorted(adapted.top_edge_indices.values())])
        w2 = differential_weight_at(V2, q2)
    return w1, w2


def _single_two_branch(X):
    from .curve import TwoBranchSingularity

    if len(X.singularities) != 1 or not isinstance(X.singularities[0], TwoBranchSingularity):
        raise ValueError("curve must have a single two-branch singularity")
    return X.singularities[0]


# ---------------------------------------------------------------------------
# Ring construction from branch parametrizations
# ---------------------------------------------------------------------------

def ring_from_generators(field, generators, window=16):
    """Close the span of (1,1) and the given series pairs under
    multiplication inside a truncation window, locate the conductor, and
    validate the resulting ring.

    Rings generated by two elements are plane-curve germs, hence always pass
    the Gorenstein check.  Raises ValueError when a generator is known to
    fewer terms than the window or its branches' constant terms differ, and
    when no conductor lies safely inside the window (non-finite delta or
    window too small).
    """
    w1 = w2 = window
    p = field.characteristic
    gens = []
    for k, pair in enumerate(generators):
        gt, gu = (s if isinstance(s, TruncatedSeries) else TruncatedSeries(field, 0, list(s), None)
                  for s in pair)
        known = min(window if s.truncation is None else s.truncation for s in (gt, gu))
        if known < window:
            raise ValueError("generator %d is known only to order %d, inside the window %d"
                             % (k, known, window))
        if gt.coefficient(0) != gu.coefficient(0):
            raise ValueError("branch constant terms differ: the ring would not be local")
        gens.append(window_ints((gt, gu), (w1, w2), p))
    one = [int(j in (0, w1)) for j in range(w1 + w2)]
    # worklist closure on int rows: each row inserted into a triangular form
    # is multiplied by each generator once (truncation is a ring map, so these
    # close the same span as the raw products); it is reduced once at the end
    pivots, rows = [], []
    pending = [rows[k] for k in (triangular_insert(pivots, rows, e, p) for e in [one] + gens)
               if k is not None]
    while pending:
        e = pending.pop()
        for g in gens:
            k = triangular_insert(pivots, rows, _product(e, g, (w1, w2), p), p)
            if k is not None:
                pending.append(rows[k])
    pivots, echelon = int_echelon(rows[::-1], p)

    # a side's conductor exponent is the least m with every unit vector from
    # m to the window's end in the span; in a reduced echelon form e_j lies
    # in the span iff j is a pivot whose row has no other nonzero entry
    units = {pc for pc, row in zip(pivots, echelon) if sum(map(bool, row)) == 1}
    xi1 = next((m for m in range(w1, 0, -1) if m - 1 not in units), 0)
    xi2 = next((m for m in range(w2, 0, -1) if w1 + m - 1 not in units), 0)
    if xi1 in (0, w1) or xi2 in (0, w2):
        raise ValueError("no conductor found inside the window")
    if xi1 + 2 > w1 or xi2 + 2 > w2:
        raise ValueError("window too small for the conductor (%d, %d)" % (xi1, xi2))

    # the rows with pivots past the conductor are the unit vectors of C, so
    # the other rows, cut to the mod-C window, are its reduced echelon form
    kept = [k for k, pc in enumerate(pivots) if pc < xi1 or w1 <= pc < w1 + xi2]
    rows = field_rows([pivots[k] for k in kept], [echelon[k] for k in kept], p)
    basis_pairs = [(row[:xi1], row[w1:w1 + xi2]) for row in rows]
    return validate_ring(field, basis_pairs, (xi1, xi2))
