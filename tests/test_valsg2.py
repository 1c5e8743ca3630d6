import math
import random
from fractions import Fraction

import pytest

from weierforge.exact import GF, INF, QQ, TruncatedSeries, scalar_echelon
from weierforge.numsg import NumericalSemigroup
from weierforge.valsg2 import (
    AdaptedBasis,
    EliminationStuck,
    NotClosed,
    NotGorenstein,
    _product,
    adapted_basis,
    edge_points,
    expected_smooth_count,
    ring_from_generators,
    symmetry_check,
    two_branch_weight_formula,
    v_systems_weights,
    validate_ring,
    value_semigroup,
)
from weierforge.curve import RationalCurve, TwoBranchSingularity, dualizing_basis, weight_report
from weierforge.gallery import node_ring, asymmetric_branch_ring, tacnode_ring
from conftest import _BRANCH_ORDERS, _branch_series
from test_exact import _ref_echelon_insert, _ref_span_reduce


def curve_of(ring):
    return RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])


def semigroup_membership_witness(ring, x, y):
    """Explicit ring element with value pair exactly (x, y), if one exists:
    pick a basis of V(x,y) and dodge the two one-step subspaces (a space is
    never the union of two proper subspaces)."""
    xi1, xi2 = ring.conductor
    w1, w2 = ring._window
    rows = ring._echelon[1]

    def basis_of(a, b):
        # vectors in the row span vanishing on the first a t-columns and
        # first b u-columns
        cols = list(range(a)) + list(range(w1, w1 + b))
        pivots, ech = scalar_echelon(rows)
        out = []
        # solve: combinations of echelon rows with zero constrained coords
        sub = [[r[c] for c in cols] for r in ech]
        from weierforge.exact import scalar_nullspace
        null = scalar_nullspace([list(col) for col in zip(*sub)] if sub and cols else [],
                                len(ech), ring.field) if cols else \
            [[ring.field.one if i == j else ring.field.zero for j in range(len(ech))]
             for i in range(len(ech))]
        for combo in null:
            vec = [ring.field.zero] * (w1 + w2)
            for c, row in zip(combo, ech):
                if c:
                    vec = [v + c * r for v, r in zip(vec, row)]
            if any(vec):
                out.append(vec)
        return out

    def value_pair(vec):
        tpart = vec[:w1]
        upart = vec[w1:]
        v1 = next((i for i, c in enumerate(tpart) if c), None)
        v2 = next((i for i, c in enumerate(upart) if c), None)
        return v1, v2

    candidates = basis_of(x, y)
    inside = [v for v in candidates
              if value_pair(v)[0] == x and value_pair(v)[1] == y]
    if inside:
        return inside[0]
    good1 = [v for v in candidates if value_pair(v)[0] == x]
    good2 = [v for v in candidates if value_pair(v)[1] == y]
    if not good1 or not good2:
        return None
    a, b = good1[0], good2[0]
    combo = [p + q for p, q in zip(a, b)]
    if value_pair(combo) == (x, y):
        return combo
    return None


class TestValidateRing:
    def test_node(self):
        ring = node_ring()
        assert ring.delta == 1 and ring.gorenstein

    def test_tacnode(self):
        ring = tacnode_ring()
        assert ring.delta == 2 and ring.gorenstein

    def test_asymmetric_branch_example(self):
        ring = asymmetric_branch_ring()
        assert ring.delta == 5 and ring.gorenstein
        S2 = value_semigroup(ring)
        assert not S2.S1.is_symmetric()

    def test_not_closed(self):
        # (t, u) alone without (t^2, u^2) in the span, conductor (3,3)
        with pytest.raises(NotClosed):
            validate_ring(QQ, [([1, 0, 0], [1, 0, 0]), ([0, 1, 0], [0, 1, 0])],
                          (3, 3))

    def test_not_gorenstein_strict(self):
        with pytest.raises(NotGorenstein):
            validate_ring(QQ, [([1, 0], [1, 0])], (2, 2))

    def test_conductor_minimality(self):
        # the node ring declared with conductor (2,2) is not minimal
        with pytest.raises(ValueError):
            validate_ring(QQ, [([1, 0], [1, 0]), ([0, 1], [0, 1]),
                               ([0, 0], [0, 1])], (2, 2))

    def test_locality(self):
        with pytest.raises(ValueError):
            validate_ring(QQ, [([1], [0])], (1, 1))


class TestValueSemigroup:
    def test_node(self):
        S = value_semigroup(node_ring())
        assert S.maximals == ((0, 0),)
        assert S.conductor == (1, 1) and S.I == 1
        assert S.S1.gaps == () and S.S2.gaps == ()

    def test_tacnode(self):
        S = value_semigroup(tacnode_ring())
        assert S.maximals == ((0, 0), (1, 1))
        assert S.I == 2 and S.delta1 == 0 and S.delta2 == 0

    def test_asymmetric_branch_instance(self):
        S = value_semigroup(asymmetric_branch_ring())
        assert S.conductor == (7, 3)
        assert S.I == 3 and S.delta1 == 2 and S.delta2 == 0
        assert S.maximals == ((0, 0), (3, 1), (6, 2))
        assert S.delta == 5 == S.I + S.delta1 + S.delta2

    def test_membership_witnesses(self, ring_corpus):
        # every claimed member of the window is realized by an explicit
        # element with that exact value pair
        for ring in ring_corpus[:6]:
            S = value_semigroup(ring)
            for (x, y) in sorted(S.finite_points):
                witness = semigroup_membership_witness(ring, x, y)
                assert witness is not None, (ring.conductor, (x, y))

    def test_basis_change_invariance(self, ring_corpus):
        rng = random.Random(55)
        for ring in ring_corpus[:5]:
            S = value_semigroup(ring)
            n = len(ring.basis)
            # random invertible transform of the basis
            while True:
                mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)]
                if len(scalar_echelon(mat)[0]) == n:
                    break
            new_basis = [tuple([sum(mat[i][j] * ring.basis[j][side].coefficient(k)
                                    for j in range(n)) for k in range(xi)]
                               for side, xi in enumerate(ring.conductor))
                         for i in range(n)]
            # a transform can break the (1,1)-constant normalization of
            # individual elements; restore a spanning set by re-adding rows
            try:
                ring2 = validate_ring(QQ, new_basis, ring.conductor)
            except ValueError:
                continue
            S2 = value_semigroup(ring2)
            assert S2.finite_points == S.finite_points
            assert S2.maximals == S.maximals


class TestSymmetry:
    def test_gorenstein_rings_symmetric(self, ring_corpus):
        for ring in ring_corpus:
            ok, witness = symmetry_check(value_semigroup(ring))
            assert ok, witness

    def test_mu_is_maximal(self, ring_corpus):
        for ring in ring_corpus:
            S = value_semigroup(ring)
            assert S.mu in set(S.maximals)

    def test_non_gorenstein_fails_with_witness(self):
        ring = validate_ring(QQ, [([1, 0], [1, 0])], (2, 2), strict=False)
        ok, witness = symmetry_check(value_semigroup(ring))
        assert not ok and witness is not None

    def test_both_properties_fail_together(self):
        # on the non-Gorenstein example, property (2) also has a failure:
        # mu = (1,1) is not in S at all, so some maximal maps outside
        ring = validate_ring(QQ, [([1, 0], [1, 0])], (2, 2), strict=False)
        S = value_semigroup(ring)
        mu = S.mu
        bad = [m for m in S.maximals
               if (mu[0] - m[0], mu[1] - m[1]) not in S
               or not S.delta_set_empty(mu[0] - m[0], mu[1] - m[1])]
        assert bad


class TestConductorIdentities:
    def test_coordinates(self, ring_corpus):
        for ring in ring_corpus + [node_ring(), tacnode_ring(), asymmetric_branch_ring()]:
            S = value_semigroup(ring)
            assert S.conductor == (S.I + 2 * S.delta1, S.I + 2 * S.delta2)
            assert S.delta == S.I + S.delta1 + S.delta2

    def test_maximal_coordinate_sums(self, ring_corpus):
        for ring in ring_corpus + [asymmetric_branch_ring()]:
            S = value_semigroup(ring)
            assert (sum(a for a, _b in S.maximals)
                    == S.I * (S.I - 1) // 2 + S.delta1 * S.I)
            assert (sum(b for _a, b in S.maximals)
                    == S.I * (S.I - 1) // 2 + S.delta2 * S.I)

    def test_fiber_gap_equivalences(self, ring_corpus):
        # for n in S1 below xi1: (n, xi2) in S  iff  xi1-1-n is a gap of S1
        # iff the vertical fiber at n is infinite
        for ring in ring_corpus + [asymmetric_branch_ring()]:
            S = value_semigroup(ring)
            xi1, xi2 = S.conductor
            for n in range(xi1):
                in_s1 = n in S.S1
                if not in_s1:
                    continue
                edge = (n, xi2) in S
                gap = (xi1 - 1 - n) in S.S1.gaps
                infinite = n in S.infinite_vertical
                assert edge == gap == infinite
            for n in range(xi2):
                if n not in S.S2:
                    continue
                edge = (xi1, n) in S
                gap = (xi2 - 1 - n) in S.S2.gaps
                infinite = n in S.infinite_horizontal
                assert edge == gap == infinite

    def test_infinite_fiber_count(self, ring_corpus):
        for ring in ring_corpus:
            S = value_semigroup(ring)
            xi1, xi2 = S.conductor
            assert len([x for x in S.infinite_vertical if x < xi1]) == S.delta1
            assert len([y for y in S.infinite_horizontal if y < xi2]) == S.delta2


class TestEdgePoints:
    def test_node_and_tacnode_have_no_edges(self):
        for ring in (node_ring(), tacnode_ring()):
            ep = edge_points(value_semigroup(ring))
            assert ep.top == [] and ep.right == []
            assert ep.top_from_gaps == [] and ep.right_from_gaps == []
            assert ep.top_symmetric_form == [] and ep.right_symmetric_form == []

    def test_asymmetric_branch_top_edge(self):
        ep = edge_points(value_semigroup(asymmetric_branch_ring()))
        assert ep.top == [(4, 3), (5, 3)]
        assert ep.top == ep.top_from_gaps
        assert ep.right == [] == ep.right_from_gaps
        # S1 is not symmetric here, so no symmetric form on that side
        assert ep.top_symmetric_form is None
        assert ep.right_symmetric_form == []

    def test_descriptions_coincide(self, ring_corpus):
        for ring in ring_corpus:
            S = value_semigroup(ring)
            ep = edge_points(S)
            assert ep.top == ep.top_from_gaps
            assert ep.right == ep.right_from_gaps
            if S.S1.is_symmetric():
                assert ep.top == ep.top_symmetric_form
            if S.S2.is_symmetric():
                assert ep.right == ep.right_symmetric_form


class TestAdaptedBasis:
    def test_node(self):
        ad = adapted_basis(curve_of(node_ring()))
        assert ad.value_pairs == ((0, 0),)
        assert ad.maximal_indices == {(0, 0): 0}

    def test_tacnode(self):
        ad = adapted_basis(curve_of(tacnode_ring()))
        assert sorted(ad.value_pairs) == [(0, 0), (1, 1)]
        assert not ad.top_edge_indices and not ad.right_edge_indices

    def test_asymmetric_branch_instance(self):
        ad = adapted_basis(curve_of(asymmetric_branch_ring()))
        assert set(ad.maximal_indices) == {(0, 0), (3, 1), (6, 2)}
        assert set(ad.top_edge_indices) == {4, 5}
        for r, idx in ad.top_edge_indices.items():
            v1, v2 = ad.value_pairs[idx]
            assert v1 == r and v2 >= 3

    def test_corpus(self, ring_corpus):
        for ring in ring_corpus:
            X = curve_of(ring)
            S = value_semigroup(ring)
            ad = adapted_basis(X)
            assert set(ad.maximal_indices) == set(S.maximals)
            for (a, b), idx in ad.maximal_indices.items():
                assert ad.value_pairs[idx] == (a, b)
            assert len(ad.top_edge_indices) == S.delta1
            assert len(ad.right_edge_indices) == S.delta2


    def test_windows_match_the_rational_function_reference(self, ring_corpus):
        # the elimination on (coefficient vector, window vector) pairs gives
        # the value pairs, index maps and generator of the elimination on
        # reduced RationalFunctions, and the same differentials up to one
        # nonzero constant each (a numerator carries its own clearing scale)
        rings = list(ring_corpus) + [node_ring(), tacnode_ring(), asymmetric_branch_ring()]
        for p in (3, 5, 101):
            rings += _seeded_germs(GF(p), 3, seed=1700 + p)
        assert len(rings) == 22
        for ring in rings:
            field = ring.field
            for locations in ((field(0), field(1)), (INF, field(2))):
                X = RationalCurve(field, [TwoBranchSingularity(ring, locations)])
                ad, ref = adapted_basis(X), _ref_adapted_basis(X)
                assert ad.value_pairs == ref.value_pairs
                assert ad.maximal_indices == ref.maximal_indices
                assert ad.top_edge_indices == ref.top_edge_indices
                assert ad.right_edge_indices == ref.right_edge_indices
                assert ad.generator_index == ref.generator_index
                for r, r_ref in zip(ad.differentials, ref.differentials, strict=True):
                    ratio = r / r_ref
                    assert ratio.num.degree == ratio.den.degree == 0


def _seeded_germs(field, count, seed):
    """Two-branch rings over the field generated by two random series pairs
    (plane-curve germs, so Gorenstein), delta at most 5."""
    rng = random.Random(seed)
    rings = []
    while len(rings) < count:
        x, y = [tuple(_branch_series(rng, order) for order in rng.choice(_BRANCH_ORDERS))
                for _ in range(2)]
        try:
            ring = ring_from_generators(field, [x, y], window=14)
        except ValueError:
            continue
        if ring.delta <= 5:
            rings.append(ring)
    return rings


def _leading_coefficient(f, q):
    """First nonzero Laurent coefficient of f at q (in 1/t at INF)."""
    if q is INF:
        return f.num.leading_coefficient / f.den.leading_coefficient
    num, den = f.num.shift(q), f.den.shift(q)
    return (next(c for c in num.coeffs if c) / next(c for c in den.coeffs if c))


def _ref_adapted_basis(X):
    """The elimination as it ran on reduced RationalFunctions: every ratio
    r / r_gen divided out, valuations and leading coefficients read at both
    branch points."""
    sing = X.singularities[0]
    S2 = value_semigroup(sing.ring)
    xi1, xi2 = S2.conductor
    basis = dualizing_basis(X)
    r_gen = basis.differentials[basis.generator_index[0]]
    q1, q2 = sing.locations

    def nu(f):
        return (f.valuation(q1), f.valuation(q2))

    def cancel(item, other, q):
        c = _leading_coefficient(item[0], q) / _leading_coefficient(other[0], q)
        item[0] = item[0] - c * other[0]
        item[1] = nu(item[0])

    work = [[r / r_gen, nu(r / r_gen)] for r in basis.differentials]
    for branch, q, xi in ((0, q1, xi1), (1, q2, xi2)):
        changed = True
        while changed:
            changed = False
            seen = {}
            for item in work:
                if (item[1][0] >= xi1) != bool(branch):
                    continue
                v = item[1][branch]
                if branch == 0 and v >= xi:
                    continue
                if v in seen:
                    cancel(item, seen[v], q)
                    changed = True
                    break
                seen[v] = item
    maximal_x = dict(S2.maximals)
    top_edge_x = {x for (x, _y) in edge_points(S2).top}
    fixed = [item for item in work if item[1][0] >= xi1]
    for item in sorted((it for it in work if it[1][0] < xi1), key=lambda it: -it[1][0]):
        v1 = item[1][0]
        target = maximal_x.get(v1, xi2)
        assert v1 in maximal_x or v1 in top_edge_x
        while item[1][1] < target:
            partner = next(f for f in fixed if f[1][0] > v1 and f[1][1] == item[1][1])
            cancel(item, partner, q2)
        fixed.append(item)
    out = AdaptedBasis([f * r_gen for f, _pair in fixed], [pair for _f, pair in fixed],
                       {}, {}, {}, None)
    for idx, (_f, (a, b)) in enumerate(fixed):
        if a < xi1 and a in maximal_x:
            out.maximal_indices[(a, maximal_x[a])] = idx
            if (a, b) == (0, 0):
                out.generator_index = idx
        elif a < xi1:
            out.top_edge_indices[a] = idx
        else:
            out.right_edge_indices[b] = idx
    return out


class TestWeightFormula:
    def test_node_formula(self):
        S = value_semigroup(node_ring())
        assert two_branch_weight_formula(S, 1, 0, 0) == 0
        for g in range(1, 6):
            assert two_branch_weight_formula(S, g, 3, 4) == (g - 1) * g + 7

    def test_tacnode(self):
        X = curve_of(tacnode_ring())
        S = value_semigroup(tacnode_ring())
        rep = weight_report(X)
        w1, w2 = v_systems_weights(X)
        assert (w1, w2) == (0, 0)
        assert two_branch_weight_formula(S, 2, w1, w2) == rep.singular_weights[0] == 4
        assert rep.smooth_divisor.degree == 2 == expected_smooth_count(S, 2)

    def test_asymmetric_branch_instance(self):
        X = curve_of(asymmetric_branch_ring())
        S = value_semigroup(asymmetric_branch_ring())
        rep = weight_report(X)
        w1, w2 = v_systems_weights(X)
        assert two_branch_weight_formula(S, 5, w1, w2) == rep.singular_weights[0]
        assert rep.total == 5 ** 3 - 5


class TestRingFromGenerators:
    def test_node_from_axes(self):
        ring = ring_from_generators(QQ, [([0, 1], [0]), ([0], [0, 1])], window=8)
        assert ring.conductor == (1, 1) and ring.delta == 1

    def test_tacnode_from_parabolas(self):
        ring = ring_from_generators(QQ, [([0, 1], [0, 1]), ([0, 0, 1], [0, 0, -1])],
                                    window=10)
        assert ring.conductor == (2, 2) and ring.delta == 2

    def test_closure_spans_every_monomial(self, germ_corpus):
        # inside the window the closure's span is the span of all truncated
        # monomials x^a y^b; both generators vanish at the origin, so
        # a + b < window covers them
        w = 14
        for (x, y), ring in germ_corpus:
            xi1, xi2 = ring.conductor
            powers = []
            for side in (0, 1):
                xs, ys = [[QQ.one]], [[QQ.one]]
                for _ in range(w - 1):
                    xs.append(_truncated_product(xs[-1], x[side], w, QQ))
                    ys.append(_truncated_product(ys[-1], y[side], w, QQ))
                powers.append((xs, ys))
            monomials = []
            for a in range(w):
                for b in range(w - a):
                    pair = []
                    for xs, ys in powers:
                        pair.extend(_truncated_product(xs[a], ys[b], w, QQ))
                    monomials.append(pair)
            closure = [[bt.coefficient(i) if i < xi1 else QQ.zero for i in range(w)]
                       + [bu.coefficient(i) if i < xi2 else QQ.zero for i in range(w)]
                       for bt, bu in ring.basis]
            for j in list(range(xi1, w)) + list(range(w + xi2, 2 * w)):
                closure.append([QQ.one if i == j else QQ.zero for i in range(2 * w)])
            assert scalar_echelon(monomials) == scalar_echelon(closure)

    def test_same_branch_rejected(self):
        with pytest.raises(ValueError):
            ring_from_generators(QQ, [([0, 1], [0, 1]), ([0, 0, 1], [0, 0, 1])],
                                 window=8)

    def test_differing_constant_terms_are_not_local(self):
        for field in (QQ, GF(5)):
            with pytest.raises(ValueError, match="^branch constant terms differ: the ring "
                                                 "would not be local$"):
                ring_from_generators(field, [([0, 1], [0, 1]), ([1, 0, 1], [2, 0, -1])],
                                     window=8)
        # equal constant terms on both branches are fine
        ring = ring_from_generators(QQ, [([3, 1], [3]), ([0], [0, 1])], window=8)
        assert ring.conductor == (1, 1)

    def test_generator_short_of_the_window_is_named(self):
        short = TruncatedSeries(QQ, 0, [0, 0, 1], 5)
        with pytest.raises(ValueError, match="^generator 1 is known only to order 5, "
                                             "inside the window 8$"):
            ring_from_generators(QQ, [([0, 1], [0, 1]), ([0, 0, 1], short)], window=8)
        # a series known to the window is accepted, as is an exact one
        ring = ring_from_generators(QQ, [(TruncatedSeries(QQ, 0, [0, 1], 8), [0]),
                                         ([0], TruncatedSeries(QQ, 0, [0, 1], None))],
                                    window=8)
        assert ring.conductor == (1, 1)

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(101)], ids=repr)
    def test_closure_matches_the_field_scalar_reference(self, field):
        rng = random.Random(900 + field.characteristic)
        closed = rejected = 0
        for _ in range(16):
            (a1, b1), (a2, b2) = rng.choice(_BRANCH_ORDERS), rng.choice(_BRANCH_ORDERS)
            x = (_branch_series(rng, a1, 8), _branch_series(rng, a2, 8))
            y = (_branch_series(rng, b1, 8), _branch_series(rng, b2, 8))
            if rng.random() < 0.25:
                c = rng.randint(1, 5)
                x = tuple([c + x0[0]] + x0[1:] for x0 in x)
            window = rng.choice([5, 7, 9, 11])
            outcome = _closure_against_the_reference(field, [x, y], window)
            closed += isinstance(outcome, dict)
            rejected += not isinstance(outcome, dict)
        assert closed >= 3 and rejected >= 3

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
    def test_closure_matches_the_reference_at_the_benchmark_window(self, field):
        rng = random.Random(940 + field.characteristic)
        closed = 0
        for _ in range(10):
            (a1, b1), (a2, b2) = rng.choice(_BRANCH_ORDERS), rng.choice(_BRANCH_ORDERS)
            x = (_branch_series(rng, a1), _branch_series(rng, a2))
            y = (_branch_series(rng, b1), _branch_series(rng, b2))
            closed += isinstance(_closure_against_the_reference(field, [x, y], 14), dict)
        assert closed >= 6

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
    def test_closure_matches_the_reference_on_a_wide_germ(self, field):
        # branches <2,5> and <3,4>, both tangent to y = 0: I = min(5*3, 4*2)
        # = 8, conductor (8 + 2*2, 8 + 2*3) = (12, 14) and delta 8 + 2 + 3;
        # tails of 24 random terms carry the entries of the closure's rows
        rng = random.Random(950 + field.characteristic)

        def branch(order):
            s = _branch_series(rng, order, 24)
            s[order] = 1    # a leading term that survives mod 2
            return s

        x, y = (branch(2), branch(3)), (branch(5), branch(4))
        outcome = _closure_against_the_reference(field, [x, y], 24)
        assert outcome["conductor"] == [12, 14] and outcome["delta"] == 13

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
    def test_closure_matches_the_reference_with_three_generators(self, field):
        rng = random.Random(960 + field.characteristic)
        closed = rejected = 0
        for _ in range(10):
            (a1, b1), (a2, b2) = rng.choice(_BRANCH_ORDERS), rng.choice(_BRANCH_ORDERS)
            x = (_branch_series(rng, a1), _branch_series(rng, a2))
            y = (_branch_series(rng, b1), _branch_series(rng, b2))
            z = (_branch_series(rng, rng.randint(1, 5)), _branch_series(rng, rng.randint(1, 5)))
            outcome = _closure_against_the_reference(field, [x, y, z], rng.choice([7, 9, 11, 14]))
            closed += isinstance(outcome, dict)
            rejected += not isinstance(outcome, dict)
        assert closed >= 3 and rejected >= 3

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
    def test_block_product_with_unequal_windows(self, field):
        # closed_span multiplies in the windows (xi1 + 2, xi2 + 2): each block
        # is the product cut to its own window, over ZZ divided by its content
        p = field.characteristic
        rng = random.Random(970 + p)
        for windows in [(3, 7), (8, 4), (1, 5), (6, 6)]:
            for _ in range(10):
                a, b = ([rng.choice([0, 0, 1, -1, 2, 6]) for _ in range(sum(windows))]
                        for _ in range(2))
                if p:
                    a, b = [x % p for x in a], [x % p for x in b]
                ref, s = [], 0
                for w in windows:
                    ref += _truncated_product([field(x) for x in a[s:s + w]],
                                              [field(x) for x in b[s:s + w]], w, field)
                    s += w
                v = _product(a, b, windows, p)
                if not p:
                    content = math.gcd(*map(int, ref)) or 1
                    ref = [x / content for x in ref]
                    assert math.gcd(*v) in (0, 1)
                assert [field(x) for x in v] == ref


def _closure_against_the_reference(field, generators, window):
    """The closed ring's JSON, or the (type, message) of its ValueError,
    asserted equal for ring_from_generators and the field-scalar reference."""
    outcomes = []
    for build in (ring_from_generators, _ref_ring_from_generators):
        try:
            outcomes.append(build(field, generators, window=window).to_json())
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], (generators, window)
    return outcomes[0]


def _truncated_product(a, b, w, field):
    """The first w coefficients of the product of two power series given by
    their coefficient lists, lowest degree first."""
    out = [field.zero] * w
    for i, x in enumerate(a[:w]):
        if x:
            for j, y in enumerate(b[:w - i]):
                if y:
                    out[i + j] += x * y
    return out


def _ref_ring_from_generators(field, generators, window):
    """The closure as it ran on field scalars: truncated products of the
    series' coefficient lists, the field-scalar reduced echelon insertion,
    and the conductor found by reducing each unit vector."""
    w1 = w2 = window

    def window_of(s, w):
        return [field(s[i]) if i < len(s) else field.zero for i in range(w)]

    gens = [(window_of(gt, w1), window_of(gu, w2)) for gt, gu in generators]
    one = (window_of([1], w1), window_of([1], w2))
    pivots, echelon = [], []
    pending = [e for e in [one] + gens if _ref_echelon_insert(pivots, echelon, e[0] + e[1])]
    while pending:
        et, eu = pending.pop()
        for gt, gu in gens:
            product = (_truncated_product(et, gt, w1, field), _truncated_product(eu, gu, w2, field))
            if _ref_echelon_insert(pivots, echelon, product[0] + product[1]):
                pending.append(product)

    def unit(j):
        return [field.one if i == j else field.zero for i in range(w1 + w2)]

    def contains(vec):
        return not any(_ref_span_reduce(pivots, echelon, vec))

    xi1 = next((m for m in range(w1)
                if all(contains(unit(j)) for j in range(m, w1))), None)
    xi2 = next((m for m in range(w2)
                if all(contains(unit(w1 + j)) for j in range(m, w2))), None)
    if xi1 is None or xi2 is None or xi1 == 0 or xi2 == 0:
        raise ValueError("no conductor found inside the window")
    if xi1 + 2 > w1 or xi2 + 2 > w2:
        raise ValueError("window too small for the conductor (%d, %d)" % (xi1, xi2))
    basis_pairs = [(row[:xi1], row[w1:w1 + xi2]) for pc, row in zip(pivots, echelon)
                   if pc < xi1 or w1 <= pc < w1 + xi2]
    return validate_ring(field, basis_pairs, (xi1, xi2))
