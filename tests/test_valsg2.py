import math
import random
import re
from fractions import Fraction

import pytest

from weierforge.exact import (
    GF,
    INF,
    QQ,
    echelon_insert,
    field_rows,
    scalar_echelon,
    scalar_ints,
    span_reduce,
    triangular_insert,
)
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
from weierforge.wronski import LinearSystem, differential_weight_at
from weierforge import valsg2 as valsg2_module
from weierforge.gallery import node_ring, asymmetric_branch_ring, tacnode_ring
from conftest import (
    _BRANCH_ORDERS,
    _branch_series,
    field_echelon,
    field_echelon_insert,
    field_nullspace,
    field_span_reduce,
)


def _reduced_basis(ring):
    """The reduced echelon basis of the ring modulo its conductor as
    (t-side, u-side) lists of field scalars, each row divided by its pivot
    entry."""
    xi1 = ring.conductor[0]
    return [(row[:xi1], row[xi1:])
            for row in field_rows(*ring._echelon, ring.field.characteristic)]


def _padded_field_rows(ring):
    """The ring modulo t^(xi1 + 2) x u^(xi2 + 2) as field rows in windows of
    xi + 2 coordinates per branch: its reduced echelon basis modulo C, each
    block padded by two zeros, and the four unit vectors of C inside the
    padding."""
    (xi1, xi2), F = ring.conductor, ring.field
    w1, n = xi1 + 2, xi1 + xi2 + 4
    rows = [bt + [F.zero] * 2 + bu + [F.zero] * 2 for bt, bu in _reduced_basis(ring)]
    for j in (xi1, xi1 + 1, w1 + xi2, w1 + xi2 + 1):
        rows.append([F.one if i == j else F.zero for i in range(n)])
    return rows


def curve_of(ring):
    return RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])


def semigroup_membership_witness(ring, x, y):
    """Explicit ring element with value pair exactly (x, y), if one exists:
    pick a basis of V(x,y) and dodge the two one-step subspaces (a space is
    never the union of two proper subspaces)."""
    xi1, xi2 = ring.conductor
    w1, w2 = xi1 + 2, xi2 + 2
    rows = _padded_field_rows(ring)

    def basis_of(a, b):
        # vectors in the row span vanishing on the first a t-columns and
        # first b u-columns
        cols = list(range(a)) + list(range(w1, w1 + b))
        pivots, ech = field_echelon(rows)
        out = []
        # solve: combinations of echelon rows with zero constrained coords
        sub = [[r[c] for c in cols] for r in ech]
        null = field_nullspace([list(col) for col in zip(*sub)] if sub and cols else [],
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
            basis = _reduced_basis(ring)
            n = len(basis)
            # random invertible transform of the basis
            while True:
                mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)]
                if len(field_echelon(mat)[0]) == n:
                    break
            new_basis = [tuple([sum(mat[i][j] * basis[j][side][k]
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

    @pytest.mark.parametrize("make_ring, alter, message", [
        # drop the last maximal point
        (tacnode_ring, lambda ms: ms[:-1],
         "first-branch value 1 is neither maximal nor a top-edge point"),
        (asymmetric_branch_ring, lambda ms: ms[:-1],
         "first-branch value 6 is neither maximal nor a top-edge point"),
        # raise the last maximal point's y by one
        (tacnode_ring, lambda ms: ms[:-1] + ((ms[-1][0], ms[-1][1] + 1),),
         "no partner to raise the second-branch value past 1"),
        (asymmetric_branch_ring, lambda ms: ms[:-1] + ((ms[-1][0], ms[-1][1] + 1),),
         "no partner to raise the second-branch value past 2"),
        # lower every y after the first by one
        (tacnode_ring, lambda ms: ms[:1] + tuple((x, y - 1) for x, y in ms[1:]),
         "second-branch value overshot the maximal point (1, 0)"),
        (asymmetric_branch_ring, lambda ms: ms[:1] + tuple((x, y - 1) for x, y in ms[1:]),
         "second-branch value overshot the maximal point (6, 1)"),
    ])
    def test_elimination_stuck_on_altered_maximals(self, make_ring, alter, message, monkeypatch):
        def altered(ring):
            S = value_semigroup(ring)
            return valsg2_module.ValueSemigroup2(
                S.ring, S.conductor, S.finite_points, S.infinite_vertical,
                S.infinite_horizontal, alter(S.maximals), S.S1, S.S2)

        monkeypatch.setattr(valsg2_module, "value_semigroup", altered)
        with pytest.raises(EliminationStuck) as info:
            adapted_basis(curve_of(make_ring()))
        assert str(info.value) == message

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
    return [ring for _generators, ring in _germs_with_generators(field, count, seed)]


def _germs_with_generators(field, count, seed):
    """(generators, ring) for the rings of _seeded_germs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x, y = [tuple(_branch_series(rng, order) for order in rng.choice(_BRANCH_ORDERS))
                for _ in range(2)]
        try:
            ring = ring_from_generators(field, [x, y], window=14)
        except ValueError:
            continue
        if ring.delta <= 5:
            out.append(([x, y], ring))
    return out


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
    out = AdaptedBasis(LinearSystem([f * r_gen for f, _pair in fixed]),
                       [pair for _f, pair in fixed], {}, {}, {}, None)
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

    @pytest.mark.parametrize("locations", [(INF, 0), (0, INF), (2, -3)],
                             ids=["inf-0", "0-inf", "2-minus-3"])
    def test_formula_matches_the_pipeline_away_from_0_1(self, ring_corpus, locations):
        # the branches at infinity, in either order, and at two finite
        # points other than 0 and 1
        rings = [node_ring(), tacnode_ring(), asymmetric_branch_ring()] + list(ring_corpus)
        for ring in rings:
            X = RationalCurve(QQ, [TwoBranchSingularity(
                ring, tuple(q if q is INF else QQ(q) for q in locations))])
            rep = weight_report(X)
            formula = two_branch_weight_formula(value_semigroup(ring), X.genus,
                                                *v_systems_weights(X))
            assert formula == rep.singular_weights[0]


class TestVSystems:
    def test_value_semigroup_is_built_once_per_ring(self, monkeypatch):
        tables = []

        def counting(pivots, rows, vec, p):
            tables.append(vec)
            return triangular_insert(pivots, rows, vec, p)

        # both rings are built first, so only value_semigroup is counted
        ring, fresh = asymmetric_branch_ring(), asymmetric_branch_ring()
        monkeypatch.setattr(valsg2_module, "triangular_insert", counting)
        S = value_semigroup(ring)
        built = len(tables)
        assert built and value_semigroup(ring) is S
        v_systems_weights(curve_of(ring))
        assert len(tables) == built
        # a fresh ring builds its own table
        assert value_semigroup(fresh) is not S
        assert len(tables) == 2 * built

    def test_weights_match_the_reduced_differentials_route(self):
        # seeded germs over GF(2), GF(3), GF(5) and GF(7), each at two
        # finite branches and with either branch at infinity
        nonzero = []
        for p in (2, 3, 5, 7):
            field = GF(p)
            for ring in _seeded_germs(field, 8, seed=900 + p):
                for locations in ((field(0), field(1)), (INF, field(0)), (field(1), INF)):
                    X = RationalCurve(field, [TwoBranchSingularity(ring, locations)])
                    weights = v_systems_weights(X)
                    assert weights == _ref_v_systems_weights(X)
                    if any(weights):
                        nonzero.append((p, weights))
        assert nonzero == [(3, (1, 0)), (5, (1, 0))]


def _ref_v_systems_weights(X):
    """The V-system weights as they ran on reduced differentials: each edge
    span handed to LinearSystem, which recomputes the shared denominator."""
    adapted = adapted_basis(X)
    q1, q2 = X.singularities[0].locations
    return tuple(
        differential_weight_at(LinearSystem([adapted.differentials[i]
                                             for i in sorted(indices.values())]), q)
        if indices else 0
        for indices, q in ((adapted.right_edge_indices, q1), (adapted.top_edge_indices, q2)))


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
            closure = [[bt[i] if i < xi1 else QQ.zero for i in range(w)]
                       + [bu[i] if i < xi2 else QQ.zero for i in range(w)]
                       for bt, bu in _reduced_basis(ring)]
            for j in list(range(xi1, w)) + list(range(w + xi2, 2 * w)):
                closure.append([QQ.one if i == j else QQ.zero for i in range(2 * w)])
            assert field_echelon(monomials) == field_echelon(closure)

    def test_window_must_be_a_positive_integer(self):
        gens = [([0, 1], [0]), ([0], [0, 1])]
        for window in (0, -3, 2.5, "8", True, None):
            with pytest.raises(ValueError, match="^window: expected a positive integer$"):
                ring_from_generators(QQ, gens, window=window)
        # the node's conductor (1, 1) is out of a window of 1 and too close
        # to the end of a window of 2
        with pytest.raises(ValueError, match="^no conductor found inside the window$"):
            ring_from_generators(QQ, gens, window=1)
        with pytest.raises(ValueError,
                           match=r"^window too small for the conductor \(1, 1\)$"):
            ring_from_generators(QQ, gens, window=2)
        assert ring_from_generators(QQ, gens, window=3).conductor == (1, 1)

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
        # closed_span multiplies in the blocks (xi1, xi2): each block is the
        # product cut to its own width, over ZZ divided by its content
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
    """The closure as it ran on field scalars, validated."""
    return validate_ring(field, *_ref_closure(field, generators, window))


def _ref_closure(field, generators, window):
    """(basis pairs, conductor) of the closure on field scalars: truncated
    products of the series' coefficient lists, the field-scalar reduced
    echelon insertion, and the conductor found by reducing each unit
    vector; the basis is the reduced echelon basis modulo C."""
    w1 = w2 = window

    def window_of(s, w):
        return [field(s[i]) if i < len(s) else field.zero for i in range(w)]

    gens = [(window_of(gt, w1), window_of(gu, w2)) for gt, gu in generators]
    one = (window_of([1], w1), window_of([1], w2))
    pivots, echelon = [], []
    pending = [e for e in [one] + gens if field_echelon_insert(pivots, echelon, e[0] + e[1])]
    while pending:
        et, eu = pending.pop()
        for gt, gu in gens:
            product = (_truncated_product(et, gt, w1, field), _truncated_product(eu, gu, w2, field))
            if field_echelon_insert(pivots, echelon, product[0] + product[1]):
                pending.append(product)

    def unit(j):
        return [field.one if i == j else field.zero for i in range(w1 + w2)]

    def contains(vec):
        return not any(field_span_reduce(pivots, echelon, vec))

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
    return basis_pairs, (xi1, xi2)


# ---------------------------------------------------------------------------
# The int-row representation against the field-scalar route it replaced
# ---------------------------------------------------------------------------

def _old_route(field, basis_pairs, conductor):
    """A declared ring as the field-scalar route carried it: each series cut
    below its conductor exponent to field scalars, zero past the end of its
    list and padded with zeros to the window xi + 2, cleared to one int row
    per element (the coefficients below each window, concatenated, through
    scalar_ints), and the reduced echelon form of the span as field rows.
    Returns (rows in conductor blocks, cut coefficient pairs, field rows cut
    to the conductor blocks, the padded echelon form)."""
    p = field.characteristic
    (xi1, xi2), windows = conductor, tuple(xi + 2 for xi in conductor)

    def cut(s, xi):
        return [field(s[i]) if i < len(s) else field.zero for i in range(xi)]

    def window_ints(series, ws):
        return scalar_ints([c for s, w in zip(series, ws)
                            for c in s + [field.zero] * (w - len(s))], p)[0]

    coefficients = [tuple(cut(s, xi) for s, xi in zip(pair, conductor)) for pair in basis_pairs]
    padded = _padded_closed_span([window_ints(e, windows) for e in coefficients], conductor,
                                 windows, p)
    # the rows with pivots below the conductor, cut to it: the span mod C
    w1 = windows[0]
    kept = [(pc, row) for pc, row in zip(*padded) if pc < xi1 or w1 <= pc < w1 + xi2]
    return ([window_ints(e, conductor) for e in coefficients], coefficients,
            [row[:xi1] + row[w1:w1 + xi2] for row in field_rows(*zip(*kept), p)], padded)


def _padded_closed_span(vectors, conductor, windows, p):
    """closed_span as it ran on windows of windows[k] coordinates per branch:
    the same checks, with the unit vectors of the conductor tail inside the
    windows inserted into the reduced echelon form it returns."""
    if not vectors:
        raise ValueError("ring does not contain 1")
    n = sum(windows)
    starts = [sum(windows[:k]) for k in range(len(windows))]
    pivots, ech = scalar_echelon(vectors, p)
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
            raise ValueError("conductor%s: declared exponent is not minimal"
                             % ("[%d]" % k if len(conductor) > 1 else ""))
    return pivots, ech


def _padded_semigroup(padded, conductor, p):
    """(finite points, vertical fibers, horizontal fibers, maximals, gaps of
    S1, gaps of S2) read off the dimension table of the padded echelon form
    of _old_route, as value_semigroup read it before the padding went."""
    xi1, xi2 = conductor
    w1, (pivots, rows) = xi1 + 2, padded
    dim, u_pivots, u_rows, k = {}, [], [], len(rows)
    for x in range(xi1 + 1, -1, -1):
        while k and pivots[k - 1] >= x:
            k -= 1
            triangular_insert(u_pivots, u_rows, rows[k][w1:], p)
        for y in range(xi2 + 2):
            dim[(x, y)] = len(rows) - k - sum(1 for pc in u_pivots if pc < y)
    finite = {(x, y) for x in range(xi1 + 1) for y in range(xi2 + 1)
              if dim[(x, y)] > dim[(x + 1, y)] and dim[(x, y)] > dim[(x, y + 1)]}
    vertical = {x for x in range(xi1 + 1) if dim[(x, xi2)] > dim[(x + 1, xi2)]}
    horizontal = {y for y in range(xi2 + 1) if dim[(xi1, y)] > dim[(xi1, y + 1)]}
    maximals = tuple((x, y) for (x, y) in sorted(finite)
                     if x not in vertical and y not in horizontal
                     and not any((x, y2) in finite for y2 in range(y + 1, xi2 + 1))
                     and not any((x2, y) in finite for x2 in range(x + 1, xi1 + 1)))
    s1 = {x for x, _y in finite} | vertical
    s2 = {y for _x, y in finite} | horizontal
    return (finite, vertical, horizontal, maximals,
            tuple(n for n in range(1, xi1) if n not in s1),
            tuple(n for n in range(1, xi2) if n not in s2))


def _declared_gallery_rings(monkeypatch):
    """(ring, declared basis pairs, conductor) for each gallery ring, the
    basis read off its validate_ring call."""
    import weierforge.gallery as gallery

    out = []

    def spy(field, pairs, conductor, strict=True):
        ring = validate_ring(field, pairs, conductor, strict)
        out.append((ring, pairs, conductor))
        return ring

    monkeypatch.setattr(gallery, "validate_ring", spy)
    for build in (node_ring, tacnode_ring, asymmetric_branch_ring):
        build()
    return out


def _invertible(rng, field, n):
    while True:
        mat = [[field(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if len(field_echelon(mat)[0]) == n:
            return mat


def _check_against_the_old_route(field, ring, basis_pairs, conductor, rng):
    p = field.characteristic
    rows, coefficients, old_rows, _padded = _old_route(field, basis_pairs, conductor)
    sing = TwoBranchSingularity(ring, (field(0), field(1)))
    # one span: the singularity's int rows against the old route's
    assert scalar_echelon(sing._rows, p) == scalar_echelon(rows, p)
    # the reduced echelon form: the old field rows, cleared
    assert tuple(ring._echelon) == scalar_echelon([scalar_ints(r, p)[0] for r in old_rows], p)
    # another basis of the span prints the same ring
    mat = _invertible(rng, field, len(coefficients))
    other = [tuple([sum((mat[i][j] * coefficients[j][side][k] for j in range(len(mat))),
                        field.zero) for k in range(xi)]
                   for side, xi in enumerate(conductor))
             for i in range(len(mat))]
    assert validate_ring(field, other, conductor).to_json() == ring.to_json()


class TestIntRowRepresentation:
    def test_gallery_rings(self, monkeypatch):
        rng = random.Random(70)
        declared = _declared_gallery_rings(monkeypatch)
        assert len(declared) == 3
        for ring, pairs, conductor in declared:
            _check_against_the_old_route(QQ, ring, pairs, conductor, rng)

    def test_ring_corpus(self, germ_corpus):
        rng = random.Random(71)
        for generators, ring in germ_corpus:
            pairs, conductor = _ref_closure(QQ, generators, 14)
            assert conductor == ring.conductor
            _check_against_the_old_route(QQ, ring, pairs, conductor, rng)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=repr)
    def test_seeded_germs(self, field):
        rng = random.Random(72 + field.characteristic)
        for generators, ring in _germs_with_generators(field, 4, 980 + field.characteristic):
            pairs, conductor = _ref_closure(field, generators, 14)
            assert conductor == ring.conductor
            # the closure's printed basis is the reduced echelon basis it declared
            assert ring.to_json()["basis"] == [[[str(c) for c in side] for side in pair]
                                               for pair in pairs]
            _check_against_the_old_route(field, ring, pairs, conductor, rng)

    def test_hand_written_basis_prints_its_reduced_echelon_basis(self):
        ring = validate_ring(QQ, [([2, 3], [2, 3]), ([0, 1], [0, 1])], (2, 2))
        assert ring.to_json()["basis"] == [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]]]


def _rings_over(field, germ_corpus, ring_corpus, monkeypatch):
    """(ring, basis pairs it was declared or closed from) over the field: the
    ring corpus's printed bases, the germ corpus and seeded germs closed over
    the field (their pairs from the field-scalar closure) and the gallery
    rings' declared bases; one that is no ring over the field is left out."""
    out = []
    for ring in ring_corpus:
        pairs = ring.to_json()["basis"]
        try:
            out.append((validate_ring(field, pairs, ring.conductor), pairs))
        except ValueError:
            pass
    seeded = _germs_with_generators(field, 4, 990 + field.characteristic)
    for generators, _ring in germ_corpus + seeded:
        try:
            ring = ring_from_generators(field, generators, window=14)
        except ValueError:
            continue
        out.append((ring, _ref_closure(field, generators, 14)[0]))
    for _ring, pairs, conductor in _declared_gallery_rings(monkeypatch):
        try:
            out.append((validate_ring(field, pairs, conductor), pairs))
        except ValueError:
            pass
    return out


_LAYOUT_FIELDS = [QQ, GF(2), GF(3), GF(7)]


class TestModConductorLayout:
    @pytest.mark.parametrize("field", _LAYOUT_FIELDS, ids=repr)
    def test_value_semigroup_matches_the_padded_route(self, field, germ_corpus, ring_corpus,
                                                      monkeypatch):
        # the dimension table over the span mod C plus the part of C inside
        # V(x, y) gives the semigroup the padded windows and their conductor
        # tail gave
        p = field.characteristic
        rings = _rings_over(field, germ_corpus, ring_corpus, monkeypatch)
        assert len(rings) >= 16
        for ring, pairs in rings:
            S = value_semigroup(ring)
            padded = _old_route(field, pairs, ring.conductor)[3]
            assert (S.finite_points, S.infinite_vertical, S.infinite_horizontal, S.maximals,
                    tuple(S.S1.gaps), tuple(S.S2.gaps)) == \
                _padded_semigroup(padded, ring.conductor, p), (ring.conductor, pairs)

    @pytest.mark.parametrize("field", _LAYOUT_FIELDS, ids=repr)
    def test_printed_basis_reads_back(self, field, germ_corpus, ring_corpus, monkeypatch):
        # one block of conductor[k] coordinates per branch, held and printed
        for ring, _pairs in _rings_over(field, germ_corpus, ring_corpus, monkeypatch):
            assert all(len(row) == sum(ring.conductor) for row in ring._echelon[1])
            assert [list(map(len, pair)) for pair in ring.to_json()["basis"]] == \
                [list(ring.conductor)] * len(ring._echelon[1])
            assert validate_ring(field, ring.to_json()["basis"], ring.conductor).to_json() \
                == ring.to_json()


class TestBoundaryInputs:
    def test_coefficients_are_coerced_into_the_field(self):
        half = Fraction(1, 2)
        for pair in [([half], [half]), ((half,), ["1/2"]), ([GF(5)(3)], [half])]:
            ring = validate_ring(GF(5), [pair], (1, 1))
            assert ring.delta == 1
            assert ring.to_json()["basis"] == [[["1"], ["1"]]]

    def test_an_element_of_another_field_is_refused(self):
        gens = [([0, 1], [0, 1]), ([0, 0, 1], [0, 0, 0, 1])]
        other = "FpElement(1, 7) (element of GF(7) in GF(5))"
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "generators[0][0][1]: invalid value FpElement(1, 7) "
                "(cannot coerce FpElement(1, 7) into QQ)")):
            ring_from_generators(QQ, [([0, GF(7)(1)], [0, 1])] + gens[1:], window=8)
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "generators[0][0][1]: invalid value " + other)):
            ring_from_generators(GF(5), [([0, GF(7)(1)], [0, 1])] + gens[1:], window=8)
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "basis[0][0][0]: invalid value " + other)):
            validate_ring(GF(5), [([GF(7)(1)], [1])], (1, 1))
        # the same generators in their own field close
        assert ring_from_generators(GF(5), gens, window=8).conductor == (2, 2)

    def test_basis_elements_of_the_wrong_arity_are_named(self):
        message = "^basis: element %d is not a pair of coefficient lists$"
        for basis, bad in [([([1],)], 0), ([([1], [1], [5])], 0), ([([1], [1]), [1, 1]], 1),
                           ([([1], [1]), ([[1]], [1])], 1), ([([1], [1]), 1], 1)]:
            with pytest.raises(ValueError, match=message % bad):
                validate_ring(QQ, basis, (1, 1))

    def test_generators_of_the_wrong_arity_are_named(self):
        message = "^generators: element %d is not a pair of coefficient lists$"
        with pytest.raises(ValueError, match=message % 1):
            ring_from_generators(QQ, [([0, 1], [0, 1]), ([0, 0, 1],)], window=8)
        with pytest.raises(ValueError, match=message % 0):
            ring_from_generators(QQ, [[0, 1]], window=8)

    def test_unibranch_basis_elements_must_be_series(self):
        from weierforge.curve import UnibranchSingularity

        # <2, 3>: basis 1 modulo t^2
        assert UnibranchSingularity(QQ, [[1]], 2, 0).delta == 1
        for basis, bad in [([[1], ([1], [1])], 1), ([([0, 0, 1], [0, 0, 1])], 0),
                           ([[1], [[0, 1]]], 1)]:
            with pytest.raises(ValueError,
                               match="^basis: element %d is not a coefficient list$" % bad):
                UnibranchSingularity(QQ, basis, 2, 0)
