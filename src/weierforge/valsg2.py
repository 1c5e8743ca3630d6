"""Two-branch local rings inside k[[t]] x k[[u]] and their value semigroups.

A ring is presented by a basis of its image modulo the conductor ideal
C = t^xi1 k[[t]] x u^xi2 k[[u]] together with the conductor exponents.
The value semigroup S = {(v1(f), v2(f))} is computed from a table of
dimensions of the subspaces V(x,y) = {f : v1(f) >= x, v2(f) >= y}: a point
lies in S exactly when both one-step restrictions drop the dimension,
since a vector space is never the union of two proper subspaces.
"""

from __future__ import annotations

import functools

from .exact import (
    Polynomial,
    _checked,
    _dot_mod_p,
    _from_ints,
    _is_int,
    _mul_trunc,
    _primitive,
    field_rows,
    scalar_echelon,
    scalar_ints,
    span_reduce,
    triangular_insert,
)
from .numsg import NumericalSemigroup
from .wronski import LinearSystem, differential_weight_at


class NotClosed(ValueError):
    """The declared basis span is not closed under multiplication mod C."""


class NotGorenstein(ValueError):
    """dim(normalization/conductor) differs from twice the delta invariant."""


class EliminationStuck(AssertionError):
    """Value-echelon elimination cannot reach the configuration promised by
    the adapted-basis theorem; for a validated ring an invariant failure."""


class TwoBranchRing:
    """Validated local ring: the reduced echelon form (pivots, int rows) of its
    span modulo the conductor ideal, one block of conductor[k] coordinates per
    branch."""

    __slots__ = ("field", "conductor", "delta", "gorenstein", "_echelon", "_value_semigroup")

    def __init__(self, field, conductor, delta, gorenstein, echelon):
        self.field = field
        self.conductor = tuple(conductor)
        self.delta = delta
        self.gorenstein = gorenstein
        self._echelon = echelon
        self._value_semigroup = None    # set by value_semigroup

    def to_json(self):
        """The ring with the reduced echelon basis of its span modulo C, each
        row divided by its pivot entry, conductor[k] entries per branch."""
        xi1, p = self.conductor[0], self.field.characteristic
        return {
            "characteristic": p,
            "conductor": list(self.conductor),
            "delta": self.delta,
            "gorenstein": self.gorenstein,
            "basis": [[[str(x) for x in row[:xi1]], [str(x) for x in row[xi1:]]]
                      for row in field_rows(*self._echelon, p)],
        }


def validate_ring(field, basis_pairs, conductor, strict=True):
    """Check a declared two-branch ring and compute its delta invariant.

    basis_pairs: pairs of coefficient lists, one per branch, spanning the
    ring modulo C; coefficients past a list's end are zero.
    With strict=True a failed Gorenstein dimension count raises; otherwise
    the ring is admitted flagged non-Gorenstein (semigroup-only analysis).
    """
    if not (isinstance(conductor, (tuple, list)) and len(conductor) == 2
            and all(map(_is_int, conductor))):
        raise ValueError("conductor: expected a pair of integers")
    xi1, xi2 = conductor
    if xi1 < 1 or xi2 < 1:
        raise ValueError("conductor: exponents must be positive")
    basis_pairs = _elements(field, basis_pairs, "basis", 2)
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
            xi > max(len(pair[k]) for pair in basis_pairs) for k, xi in enumerate(conductor)):
        raise refusal if strict else ValueError(
            "conductor: past every coefficient given on its branch; extend the basis series to it")
    rows = _basis_rows(field, basis_pairs, conductor)
    if any(v[0] != v[xi1] for v in rows):
        raise ValueError("branch constant terms differ: the ring would not be local")
    echelon = closed_span(rows, (xi1, xi2), field.characteristic)
    if delta < 1:
        raise ValueError("delta invariant must be at least 1")
    if refusal and strict:
        raise refusal
    return TwoBranchRing(field, (xi1, xi2), delta, gorenstein, echelon)


def _elements(field, items, name, branches):
    """The items as a list of elements, each a tuple of one coefficient list
    per branch (an item is a pair of lists, or one list), every coefficient
    coerced into the field, ints kept.  A ValueError names the argument for
    a wrong shape, else the coefficient: name[n][k], or name[n][b][k]."""
    lists = (tuple, list)
    if not isinstance(items, lists):
        raise ValueError("%s: expected a list" % name)
    elements = []
    for n, item in enumerate(items):
        at = "%s[%d]" % (name, n)
        series, paths = (item, [at + "[0]", at + "[1]"]) if branches == 2 else ((item,), [at])
        if not (isinstance(series, lists) and len(series) == branches and all(
                isinstance(s, lists) and not any(isinstance(x, lists) for x in s) for s in series)):
            raise ValueError("%s: element %d is not %s" % (name, n, (
                "a coefficient list", "a pair of coefficient lists")[branches - 1]))
        elements.append(tuple([x if type(x) is int else _checked("%s[%d]" % (a, k), field, x)
                               for k, x in enumerate(s)] for a, s in zip(paths, series)))
    return elements


def _basis_rows(field, elements, conductor):
    """Int rows of elements from _elements (residues over GF(p), cleared over
    QQ): per branch its coefficients below conductor[k], zero past the end
    of its list."""
    p, rows = field.characteristic, []
    for element in elements:
        row = []
        for s, xi in zip(element, conductor):
            row += s[:xi] + [0] * (xi - len(s))
        rows.append([x % p if type(x) is int else x.value for x in row] if p else
                    scalar_ints(row, 0)[0])
    return rows


def closed_span(vectors, conductor, p):
    """Check a basis of a local ring modulo its conductor ideal C, given as
    int vectors over GF(p) (ZZ for p = 0) with one block of conductor[k]
    coordinates per branch: it must be independent, hold 1 and be closed
    under multiplication mod C, and no branch's conductor exponent may be
    smaller than declared.  Returns the reduced echelon form (pivots, int
    rows) of its span.
    """
    if not vectors:    # before a vector of sum(conductor) entries is built
        raise ValueError("ring does not contain 1")
    n = sum(conductor)
    starts = [sum(conductor[:k]) for k in range(len(conductor))]
    pivots, ech = scalar_echelon(vectors, p)
    if len(pivots) != len(vectors):
        raise ValueError("basis is linearly dependent modulo the conductor")

    def contains(vec):
        return not any(span_reduce(pivots, ech, vec, p))

    if not contains([int(j in starts) for j in range(n)]):
        raise ValueError("ring does not contain 1")
    for i, a in enumerate(vectors):
        for b in vectors[i:]:
            if not contains(_product(a, b, conductor, p)):
                raise NotClosed("basis span is not closed under multiplication mod C")
    for k, (s, xi) in enumerate(zip(starts, conductor)):
        if contains([int(i == s + xi - 1) for i in range(n)]):
            raise ValueError("conductor%s: declared exponent is not minimal"
                             % ("[%d]" % k if len(conductor) > 1 else ""))
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
    V(x,y) = {f in O : v1(f) >= x, v2(f) >= y}, once per ring."""
    if ring._value_semigroup is not None:
        return ring._value_semigroup
    xi1, xi2 = ring.conductor
    p, (pivots, rows) = ring.field.characteristic, ring._echelon
    # dim V(x,y) mod t^(xi1 + 2) x u^(xi2 + 2): its part in C, xi1 + 2 - max(x, xi1)
    # coordinates on t and likewise on u, plus its image mod C, the rows with t-block
    # zero below min(x, xi1) less one condition per pivot below y of their u-blocks'
    # span, read off one triangular form that takes each u-block once, x descending
    dim, u_pivots, u_rows, k = {}, [], [], len(rows)
    for x in range(xi1 + 1, -1, -1):
        while k and pivots[k - 1] >= min(x, xi1):
            k -= 1
            triangular_insert(u_pivots, u_rows, rows[k][xi1:], p)
        for y in range(xi2 + 2):
            dim[(x, y)] = (len(rows) - k - sum(1 for pc in u_pivots if pc < y)
                           + xi1 + 2 - max(x, xi1) + xi2 + 2 - max(y, xi2))

    finite_points = {(x, y) for x in range(xi1 + 1) for y in range(xi2 + 1)
                     if dim[(x, y)] > dim[(x + 1, y)] and dim[(x, y)] > dim[(x, y + 1)]}
    infinite_vertical = {x for x in range(xi1 + 1) if dim[(x, xi2)] > dim[(x + 1, xi2)]}
    infinite_horizontal = {y for y in range(xi2 + 1) if dim[(xi1, y)] > dim[(xi1, y + 1)]}

    # declared conductor is minimal (cross-check with validate_ring)
    if (xi1 and xi1 - 1 in infinite_vertical) or (xi2 and xi2 - 1 in infinite_horizontal):
        raise AssertionError("declared conductor (%d, %d) is not minimal" % (xi1, xi2))

    maximals = [(x, y) for (x, y) in sorted(finite_points)
                if x not in infinite_vertical and y not in infinite_horizontal
                and not any((x, y2) in finite_points for y2 in range(y + 1, xi2 + 1))
                and not any((x2, y) in finite_points for x2 in range(x + 1, xi1 + 1))]

    s1_vals = {x for (x, _y) in finite_points} | infinite_vertical
    s2_vals = {y for (_x, y) in finite_points} | infinite_horizontal
    S1 = NumericalSemigroup([n for n in range(1, xi1) if n not in s1_vals])
    S2 = NumericalSemigroup([n for n in range(1, xi2) if n not in s2_vals])

    ring._value_semigroup = ValueSemigroup2(ring, (xi1, xi2), frozenset(finite_points),
                                            frozenset(infinite_vertical),
                                            frozenset(infinite_horizontal), tuple(maximals), S1, S2)
    return ring._value_semigroup


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
    one per right-edge point (first at least xi1, exact second value), held
    as one LinearSystem over the dualizing basis's denominator."""

    __slots__ = ("system", "value_pairs", "maximal_indices",
                 "top_edge_indices", "right_edge_indices", "generator_index")

    def __init__(self, system, value_pairs, maximal_indices,
                 top_edge_indices, right_edge_indices, generator_index):
        self.system = system
        self.value_pairs = tuple(value_pairs)
        self.maximal_indices = dict(maximal_indices)
        self.top_edge_indices = dict(top_edge_indices)
        self.right_edge_indices = dict(right_edge_indices)
        self.generator_index = generator_index

    @property
    def differentials(self):
        return self.system.functions


def adapted_basis(X):
    """Adapted dualizing basis for a rational curve whose only singularity
    is two-branch: Gaussian elimination on value pairs.  Each differential
    in turn is reduced against the holder of its value until that value is
    new: first-branch values over all of them, then second-branch values
    over those at or past xi1 on the first branch, in order, and the rest by
    descending first-branch value, so one below xi1 is raised only by
    differentials of larger first-branch value.  Each of those must end at
    its target: the second coordinate of its maximal point, or xi2 on the
    top edge.

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

    def insert(item, branch, holders):
        """Subtract from item the multiple of the holder of its value on the
        branch sharing its leading term until that value is new, and hold
        it there if it is below the conductor."""
        s, c = blocks[branch]
        while item[1][branch] in holders:
            v, w = item[0], holders[item[1][branch]][0]
            j = s + item[1][branch]
            if p:
                f = v[j] * pow(w[j], -1, p)
                v = [(x - f * y) % p for x, y in zip(v, w)]
            else:
                v = _primitive([w[j] * x - v[j] * y for x, y in zip(v, w)])
            if not any(v[:g]):
                raise EliminationStuck("dependent differentials in value elimination")
            item[:] = v, nu(v)
        if item[1][branch] < c:
            holders[item[1][branch]] = item

    work = []
    for k, window in enumerate(basis._windows[0]):
        vec = [int(i == k) for i in range(g)] + window
        work.append([vec, nu(vec)])
    by_v1, by_v2 = {}, {}
    for item in work:
        insert(item, 0, by_v1)

    maximal_y = dict(S2.maximals)
    targets = {x: xi2 for x, _y in edge_points(S2).top} | maximal_y
    # the items at or past xi1 all hold the capped value xi1, so a stable sort
    # keeps them first and in order
    ordered = sorted(work, key=lambda item: -item[1][0])
    for item in ordered:
        v1 = item[1][0]
        if v1 < xi1 and v1 not in targets:
            raise EliminationStuck(
                "first-branch value %d is neither maximal nor a top-edge point" % v1)
        insert(item, 1, by_v2)
        v2 = item[1][1]
        if v1 >= xi1 and v2 >= xi2:
            raise EliminationStuck(
                "differential with values beyond the conductor on both branches")
        if v1 < xi1 and v2 < targets[v1]:
            raise EliminationStuck(
                "no partner to raise the second-branch value past %d" % v2)
        if v1 < xi1 and v2 > targets[v1]:
            raise EliminationStuck(
                "second-branch value overshot the maximal point (%d, %d)" % (v1, targets[v1]))

    # each result is one numerator combination over the ansatz denominator D,
    # their lcm: the one of value pair (0, 0) has the full pole on both branches
    V, nums = basis._system, basis.numerators
    gen = V.numerators[basis.generator_index[0]]

    numerators, value_pairs = [], []
    maximal_indices, top_indices, right_indices = {}, {}, {}
    for idx, (vec, pair) in enumerate(ordered):
        num = _from_ints(X.field, _dot_mod_p([[c] for c in vec[:g]], nums, p))
        numerators.append(num)
        pair = tuple(v if v < c else num.order_at(q) - gen.order_at(q)
                     for v, (_s, c), q in zip(pair, blocks, sing.locations))
        value_pairs.append(pair)
        if pair[0] in maximal_y:
            maximal_indices[(pair[0], maximal_y[pair[0]])] = idx
        elif pair[0] < xi1:
            top_indices[pair[0]] = idx
        else:
            right_indices[pair[1]] = idx
    generator_index = maximal_indices.get((0, 0))
    if generator_index is None:
        raise EliminationStuck("no differential with value pair (0, 0)")
    if len(maximal_indices) != S2.I:
        raise EliminationStuck("value elimination missed a maximal point")
    if len(top_indices) != S2.delta1 or len(right_indices) != S2.delta2:
        raise EliminationStuck("value elimination missed an edge point")
    return AdaptedBasis(LinearSystem.over(V.denominator, numerators), value_pairs,
                        maximal_indices, top_indices, right_indices, generator_index)


def v_systems_weights(X):
    """(W_V1(Q1), W_V2(Q2)) for a rational curve whose only singularity is
    two-branch: V1 is spanned by the right-edge differentials (regular at
    Q1), V2 by the top-edge differentials (regular at Q2).  Degenerate spans
    give weight 0.
    """
    sing = _single_two_branch(X)
    adapted = adapted_basis(X)
    D = adapted.system.denominator

    def weight(indices, q):
        # D and the span's numerators over their one gcd: D's quotient is the lcm
        nums = [adapted.system.numerators[i] for i in sorted(indices.values())]
        common = functools.reduce(Polynomial.gcd, nums, D)
        return differential_weight_at(LinearSystem.over(
            D.exact_div(common), [n.exact_div(common) for n in nums]), q) if nums else 0

    return (weight(adapted.right_edge_indices, sing.locations[0]),
            weight(adapted.top_edge_indices, sing.locations[1]))


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
    the Gorenstein check.  Raises ValueError when a generator's branches'
    constant terms differ, and when no conductor lies safely inside the
    window (non-finite delta or window too small).
    """
    if not (_is_int(window) and window >= 1):
        raise ValueError("window: expected a positive integer")
    w1 = w2 = window
    p = field.characteristic
    generators = _elements(field, generators, "generators", 2)
    gens = _basis_rows(field, generators, (w1, w2))
    if any(g[0] != g[w1] for g in gens):
        raise ValueError("branch constant terms differ: the ring would not be local")
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
    pivots, echelon = scalar_echelon(rows[::-1], p)

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
    # (over ZZ unit multiples of the field rows, spanning the same)
    kept = [k for k, pc in enumerate(pivots) if pc < xi1 or w1 <= pc < w1 + xi2]
    return validate_ring(field, [(echelon[k][:xi1], echelon[k][w1:w1 + xi2]) for k in kept],
                         (xi1, xi2))
