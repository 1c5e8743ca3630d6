import random
import re
from fractions import Fraction

import pytest

from weierforge.curve import (
    DualizingBasis,
    GeneratorNotFound,
    MonomialSingularity,
    RationalCurve,
    SolutionDimensionMismatch,
    TwoBranchSingularity,
    UnibranchSingularity,
    detect_two_singularity_case,
    dualizing_basis,
    monomial_curve_weights,
    singular_weight,
    smooth_count_formula,
    smooth_weight_at,
    two_monomial_weights,
    unibranch_weight_formula,
    weight_report,
)
from weierforge import curve as curve_module
from weierforge.exact import (
    GF,
    INF,
    QQ,
    Polynomial,
    RationalFunction,
    _from_ints,
    fraction_free_rank_det,
    quotient_rows,
    scalar_ints,
    scalar_nullspace,
)
from weierforge.numsg import NumericalSemigroup
from weierforge.valsg2 import (
    adapted_basis,
    two_branch_weight_formula,
    v_systems_weights,
    validate_ring,
    value_semigroup,
)
from weierforge.wronski import LinearSystem, differential_weight_at, order_sequence
from weierforge.gallery import (
    asymmetric_branch_ring,
    double_cusp_curve,
    node_curve,
    perturbed_cusp_curve,
    quartic_cusp_curve,
    tacnode_curve,
)
from conftest import (
    bareiss_mod_p,
    derivative,
    field_echelon,
    pole_term_weight_at,
    symmetric_semigroups,
    valuation_at_zero,
)

S34 = NumericalSemigroup.from_generators([3, 4])
S23 = NumericalSemigroup.from_generators([2, 3])


def differential_order_at(r, point):
    """Order of r(t) dt at a point of the line: the valuation of r, shifted
    by -2 at INF where dt = -du/u^2."""
    v = r.valuation(point)
    return v - 2 if point is INF else v


def _lying_curve():
    """A descriptor lying about its local ring: too few residue conditions."""
    sing = MonomialSingularity(QQ, S34, Fraction(0))

    class Lying:
        field = sing.field
        delta = sing.delta
        locations = sing.locations
        semigroup = sing.semigroup
        _rows = sing._rows[:-1]

        def branches(self):
            return sing.branches()

        def describe(self):
            return sing.describe()

    return RationalCurve(QQ, [Lying()])


def _non_gorenstein_curve():
    ring = validate_ring(QQ, [([1, 0], [1, 0])], (2, 2), strict=False)
    return RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])


def _assert_scaled(ints, ref, field):
    """ints are the field elements ref over one positive integer denominator,
    residues over GF(p)."""
    assert len(ints) == len(ref)
    if field.characteristic:
        assert ints == [x.value for x in ref]
        return
    j = next((i for i, x in enumerate(ref) if x), None)
    if j is None:
        assert not any(ints)
        return
    scale = ints[j] / ref[j]
    assert scale > 0 and scale.denominator == 1
    assert [field(x) for x in ints] == [scale * x for x in ref]


def _laurent_at(f, point, upto):
    """Reference Laurent expansion of f at the point, in powers of
    t - point (of 1/t at INF): {exponent: coefficient} on [valuation, upto),
    by long division of the moved numerator by the moved denominator."""
    if f.is_zero():
        return {}
    if point is INF:
        n = max(f.num.degree, f.den.degree)
        num, den = f.num.reversed_coeffs(n), f.den.reversed_coeffs(n)
    else:
        num, den = f.num.shift(point), f.den.shift(point)
    vn, vd = valuation_at_zero(num), valuation_at_zero(den)
    a, b = num.coeffs[vn:], den.coeffs[vd:]
    v, out = vn - vd, []
    for i in range(upto - v):
        x = a[i] if i < len(a) else f.field.zero
        for j in range(1, min(i, len(b) - 1) + 1):
            x = x - b[j] * out[i - j]
        out.append(x / b[0])
    return {v + i: x for i, x in enumerate(out)}


def _branch_expansion(f, br, upto):
    """Reference expansion of f(t) dt in the branch parameter s: substitute
    the chart t = (d s - b) / (a - c s) that inverts the uniformizer
    s = (a t + b) / (c t + d), times dt / ds, and expand at s = 0."""
    u = br.uniformizer
    a, b = u.num.coefficient(1), u.num.coefficient(0)
    c, d = u.den.coefficient(1), u.den.coefficient(0)
    chart = RationalFunction(Polynomial(u.field, [-b, d]), Polynomial(u.field, [a, -c]))
    return _laurent_at(f.num(chart) / f.den(chart) * derivative(chart), u.field.zero, upto)


@pytest.fixture
def builds(monkeypatch):
    """Counts dualizing basis builds: each solves the residue conditions once."""
    calls = []

    def counting(*args):
        calls.append(args)
        return scalar_nullspace(*args)

    monkeypatch.setattr(curve_module, "scalar_nullspace", counting)
    return calls


class TestDualizingBasis:
    def test_quartic_cusp_char2(self):
        X = quartic_cusp_curve(2)
        basis = dualizing_basis(X)
        t = Polynomial.variable(GF(2))
        got = {str(r) for r in basis.differentials}
        assert got == {"1/(t^6)", "1/(t^3)", "1/(t^2)"}
        assert basis.differentials[basis.generator_index[0]] == 1 / t ** 6

    def test_perturbed_cusp(self):
        X = perturbed_cusp_curve(0)
        basis = dualizing_basis(X)
        t = Polynomial.variable(QQ)
        gen = basis.differentials[basis.generator_index[0]]
        ratio = gen / ((1 - t ** 2) / t ** 6)
        assert ratio.num.degree == 0 and ratio.den.degree == 0
        spans = {str(r.monic() if hasattr(r, "monic") else r) for r in basis.differentials}
        assert any("t^3" in s for s in spans) and any("t^2" in s for s in spans)

    def test_node(self):
        X = node_curve()
        basis = dualizing_basis(X)
        t = Polynomial.variable(QQ)
        assert len(basis.differentials) == 1
        r = basis.differentials[0]
        ratio = r / (1 / (t * (t - 1)))
        assert ratio.num.degree == 0 and ratio.den.degree == 0

    def test_residue_conditions_hold(self):
        # every basis differential annihilates every local basis element
        # under the residue sum, re-checked after echelonization with a
        # reference built in the global coordinate: f = sum_i f_i u^i as a
        # rational function, and Res(f r dt) read in t - a, or at INF from
        # -h(1/t)/t^2 for h = f r (reversed coefficients, no branch chart)
        def residue(h, location):
            if location is INF:
                n = max(h.num.degree, h.den.degree)
                t = Polynomial.variable(h.field)
                h = -RationalFunction(h.num.reversed_coeffs(n),
                                      h.den.reversed_coeffs(n)) / t ** 2
                location = h.field.zero
            return _laurent_at(h, location, 0).get(-1, h.field.zero)

        t = Polynomial.variable(QQ)
        curves = (quartic_cusp_curve(2), perturbed_cusp_curve(0), tacnode_curve(),
                  double_cusp_curve(),
                  RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                                     MonomialSingularity(QQ, S34, INF)]),
                  RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                                     MonomialSingularity(QQ, S34, Fraction(1),
                                                         uniformizer=(t - 1) / t)]),
                  RationalCurve(QQ, [UnibranchSingularity(
                      QQ, [[1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1]], 6, INF)]))
        for X in curves:
            basis = dualizing_basis(X)
            for sing in X.singularities:
                branches = sing.branches()
                starts = [0, branches[0].conductor_exponent]
                # each int row is a local basis element over one scale:
                # entry i of a branch's block the coefficient of s^i
                for row in sing._rows:
                    fns = [sum((X.field(row[start + i]) * br.uniformizer ** i
                                for i in range(br.conductor_exponent)),
                               RationalFunction(Polynomial(X.field, [])))
                           for start, br in zip(starts, branches)]
                    for r in basis.differentials:
                        total = X.field.zero
                        for fb, br in zip(fns, branches):
                            total = total + residue(fb * r, br.location)
                        assert not total

    def test_ratio_with_a_pole_leaves_the_local_ring(self):
        # with a generator of less than the conductor's pole order, the
        # ratio of the deepest-pole differential to it has a pole there
        from weierforge.curve import _verify_generators

        for X in (perturbed_cusp_curve(0), RationalCurve(QQ, [UnibranchSingularity(
                QQ, [[1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1]], 6, INF)])):
            basis = dualizing_basis(X)
            q = X.singularities[0].location
            shallow = max(range(len(basis.differentials)),
                          key=lambda i: differential_order_at(basis.differentials[i], q))
            with pytest.raises(GeneratorNotFound):
                _verify_generators(X, DualizingBasis(X, basis._system, {0: shallow},
                                                     basis._windows))

    def test_non_gorenstein_ring_has_no_generator(self):
        # Rosenlicht duality still produces g differentials, but no single
        # one generates the dualizing stalk of a non-Gorenstein point
        with pytest.raises(GeneratorNotFound):
            dualizing_basis(_non_gorenstein_curve())

    def test_dimension_mismatch_detected(self):
        # a descriptor lying about its local ring (too few residue
        # conditions) inflates the solution space past the genus
        with pytest.raises(SolutionDimensionMismatch):
            dualizing_basis(_lying_curve())

    @pytest.mark.parametrize("p", [0, 2, 3, 100003])
    def test_ansatz_windows_match_per_element_expansions(self, p):
        # reference: substitute the branch chart into each t^k dt / D and
        # expand it on its own; the int windows hold the same coefficients
        # over one positive denominator per singularity (none over GF(p)).
        # Branches at 0, at nonzero points, at INF, under (t - 1)/t, under
        # 3/(t + 7) at INF (2/(t + 7) over GF(3)), under (3t + 5)/(t - 11)
        # at -5/3, on both sides of two-branch points, and with deg D of 0
        # and 1, where a - c s enters dt / D to a negative power
        field = QQ if p == 0 else GF(p)
        t = Polynomial.variable(field)
        node = validate_ring(field, [([1], [1])], (1, 1))
        tacnode = validate_ring(field, [([1, 0], [1, 0]), ([0, 1], [0, 1])], (2, 2))
        far = field(Fraction(982451653, 7919)) if p in (0, 100003) else field(0)
        curves = [
            RationalCurve(field, [MonomialSingularity(field, S34, field(0)),
                                  MonomialSingularity(field, S34, INF)]),
            RationalCurve(field, [MonomialSingularity(field, S34, field(0)),
                                  MonomialSingularity(field, S23, field(1),
                                                      uniformizer=(t - 1) / t)]),
            RationalCurve(field, [MonomialSingularity(field, S23, field(0)),
                                  TwoBranchSingularity(tacnode, (field(1), INF))]),
            RationalCurve(field, [TwoBranchSingularity(node, (field(-1), INF)),
                                  MonomialSingularity(field, S23, far)]),
            RationalCurve(field, [MonomialSingularity(field, S34, INF,
                                                      uniformizer=(2 if p == 3 else 3) / (t + 7)),
                                  MonomialSingularity(field, S23, field(2))]),
            RationalCurve(field, [MonomialSingularity(field, S34, INF)]),
            RationalCurve(field, [TwoBranchSingularity(node, (field(-1), INF))]),
        ]
        if p in (0, 100003):
            curves.append(RationalCurve(field, [
                MonomialSingularity(field, S34, field(Fraction(-5, 3)),
                                    uniformizer=(3 * t + 5) / (t - 11)),
                MonomialSingularity(field, S23, INF)]))
        for X in curves:
            D, windows = curve_module._ansatz(X)
            assert len(windows) == len(X.singularities)
            for sing, ws in zip(X.singularities, windows):
                ref = []
                for k in range(len(ws)):
                    for br in sing.branches():
                        e = _branch_expansion(RationalFunction(t ** k, D), br, 0)
                        ref += [e.get(j, field.zero) for j in range(-br.conductor_exponent, 0)]
                _assert_scaled([x for w in ws for x in w], ref, field)
            # each basis differential's window vector is its numerator over D
            # times the ansatz windows
            differentials = dualizing_basis(X).differentials
            numerators = [scalar_ints((r.num * D.exact_div(r.den)).coeffs, p)[0]
                          for r in differentials]
            local = curve_module._local_windows(windows, numerators, p)
            for sing, vectors in zip(X.singularities, local):
                for r, v in zip(differentials, vectors):
                    ref = []
                    for br in sing.branches():
                        e = _branch_expansion(r, br, 0)
                        ref += [e.get(j, field.zero) for j in range(-br.conductor_exponent, 0)]
                    _assert_scaled(v, ref, field)

    def test_generator_is_found_on_every_branch(self):
        sing = tacnode_curve().singularities[0]
        vectors = [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0], [2, 0, 3, 0]]
        assert curve_module._find_generator(sing, vectors) == 3
        with pytest.raises(GeneratorNotFound):
            curve_module._find_generator(sing, vectors[:3])

    def test_generator_needs_the_full_pole_order(self):
        # alone, a differential with a shallower pole than the conductor's
        # has ratio 1 to itself, yet generates nothing
        from weierforge.curve import _verify_generators

        X = perturbed_cusp_curve(0)
        q = X.singularities[0].location
        basis = dualizing_basis(X)
        shallow = max(range(len(basis.differentials)),
                      key=lambda i: differential_order_at(basis.differentials[i], q))
        with pytest.raises(GeneratorNotFound):
            _verify_generators(X, DualizingBasis(X, LinearSystem([basis.differentials[shallow]]), {0: 0},
                                                 [[basis._windows[0][shallow]]]))

    def test_basis_is_built_once_per_curve(self, builds):
        X = tacnode_curve()
        rep = weight_report(X)
        basis = dualizing_basis(X)
        assert dualizing_basis(X) is basis and len(builds) == 1
        # the two-branch path and smooth weights reuse it
        S2 = value_semigroup(X.singularities[0].ring)
        assert (two_branch_weight_formula(S2, X.genus, *v_systems_weights(X))
                == rep.singular_weights[0])
        assert adapted_basis(X).generator_index is not None
        smooth_weight_at(X, Fraction(5))
        assert len(builds) == 1
        # a fresh curve builds its own, equal basis
        Y = tacnode_curve()
        assert dualizing_basis(Y) is not basis
        assert dualizing_basis(Y).differentials == basis.differentials
        assert len(builds) == 2

    @pytest.mark.parametrize("make, error", [(_lying_curve, SolutionDimensionMismatch),
                                             (_non_gorenstein_curve, GeneratorNotFound)])
    def test_a_failed_build_stores_nothing(self, builds, make, error):
        X = make()
        for attempt in (1, 2):
            with pytest.raises(error):
                dualizing_basis(X)
            assert len(builds) == attempt and X._dualizing_basis is None

    def test_bad_unibranch_rejected(self):
        # gaps {1, 2} make a non-symmetric value semigroup: not Gorenstein
        with pytest.raises(ValueError):
            UnibranchSingularity(QQ, [[1]], 3, Fraction(0))
        # declared conductor exponent above the true one
        with pytest.raises(ValueError):
            UnibranchSingularity(QQ, [[1], [0, 0, 1], [0, 0, 0, 0, 1]], 5, Fraction(0))


def _random_invertible(rng, field, n):
    while True:
        mat = [[field(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if len(field_echelon(mat)[0]) == n:
            return mat


class TestUnibranchValues:
    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_semigroup_read_off_the_basis(self, characteristic):
        # the values below the conductor are the leading exponents of the
        # span, whatever basis of it is given
        field = QQ if characteristic == 0 else GF(characteristic)
        rng = random.Random(40 + characteristic)
        for S in symmetric_semigroups(4):
            c = S.conductor
            monomials = [[field.zero] * n + [field.one]
                         for n in range(c) if n not in S.gaps]
            sing = UnibranchSingularity(field, monomials, c, field(0))
            assert sing.semigroup.gaps == S.gaps
            assert (sing.semigroup.gaps
                    == NumericalSemigroup.from_generators(S.generators).gaps)
            mat = _random_invertible(rng, field, len(monomials))
            mixed = [[sum((m[j] * monomials[j][i] for j in range(len(monomials))
                           if i < len(monomials[j])), field.zero) for i in range(c)]
                     for m in mat]
            assert UnibranchSingularity(field, mixed, c, field(0)).semigroup.gaps == S.gaps

    @pytest.mark.parametrize("basis, conductor, message", [
        ([[1], [0, 0, 1], [2, 0, 2], [0, 0, 0, 1]], 4, "linearly dependent"),
        ([[1], [0, 1, 1]], 3, "closed under multiplication"),
        ([[0, 0, 1], [0, 0, 0, 1]], 4, "does not contain 1"),
        ([[1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], 5, "not minimal"),
        ([[1]], 0, "conductor: exponent must be positive"),
    ])
    def test_span_checks(self, basis, conductor, message):
        with pytest.raises(ValueError, match=message):
            UnibranchSingularity(QQ, basis, conductor, Fraction(0))


class TestSingularWeights:
    def test_quartic_cusp_char2(self):
        X = quartic_cusp_curve(2)
        assert singular_weight(X, 0, dualizing_basis(X)) == 32

    def test_perturbed_char3(self):
        X = perturbed_cusp_curve(3)
        assert singular_weight(X, 0, dualizing_basis(X)) == 24

    def test_monomial_char0(self):
        X = quartic_cusp_curve(0)
        assert singular_weight(X, 0, dualizing_basis(X)) == 22


def _reference_singular_weight(X, si, basis, orders):
    """The global route singular_weight took before its int rows: the
    quotients r_j / r_gen as one LinearSystem, the hasse_list of each, the
    determinant by fraction_free_rank_det and its valuations."""
    sing = X.singularities[si]
    r_gen = basis.differentials[basis.generator_index[si]]
    V = LinearSystem([r / r_gen for r in basis.differentials])
    lists = [f.hasse_list(max(orders)) for f in V.functions]
    _rank, det = fraction_free_rank_det([[l[e] for l in lists] for e in orders])
    at_inf = sum(1 for br in sing.branches() if br.location is INF)
    return (2 * sing.delta * orders.N + sum(det.valuation(br.location) for br in sing.branches())
            - 2 * orders.N * at_inf)


def _agreement_curves(field):
    def mono(gens, loc):
        return MonomialSingularity(field, NumericalSemigroup.from_generators(gens), loc)
    tacnode = validate_ring(field, [([1, 0], [1, 0]), ([0, 1], [0, 1])], (2, 2))
    return [RationalCurve(field, sings) for sings in (
        [mono([3, 4], INF)],
        [mono([3, 4], field(0)), mono([3, 5], INF)],
        [mono([4, 5, 6], field(1))],
        [mono([4, 6, 9], INF)],
        [TwoBranchSingularity(tacnode, (field(0), INF))],
        [UnibranchSingularity(field, [[1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1]], 6, INF)])]


def _global_minor_weight(X, si, basis):
    """The route singular_weight took before its local orders: the minor
    of the exact.quotient_rows expanded by Bareiss as a polynomial, its root
    multiplicity at each finite branch and its degree at INF."""
    sing = X.singularities[si]
    orders = order_sequence(basis._system)
    gi = basis.generator_index[si]
    nums, G = basis.numerators, basis.numerators[gi]
    rows = quotient_rows(X.field, nums[:gi] + nums[gi + 1:], G, orders.terms[1:])
    rank, minor, _sign = bareiss_mod_p(rows, X.characteristic)
    assert rank == len(rows)
    minor, G = _from_ints(X.field, minor), _from_ints(X.field, G)
    k = orders.N + len(orders) - 1
    weight = 2 * sing.delta * orders.N
    for br in sing.branches():
        if br.location is INF:
            weight += k * G.degree - minor.degree - 2 * orders.N
        else:
            weight += minor.root_multiplicity(br.location) - k * G.root_multiplicity(br.location)
    return weight


def _assert_agreement(X):
    basis = dualizing_basis(X)
    orders = order_sequence(LinearSystem(basis.differentials))
    weights = [singular_weight(X, si, basis) for si in range(len(X.singularities))]
    assert weights == [_reference_singular_weight(X, si, basis, orders)
                       for si in range(len(X.singularities))]
    assert weights == [_global_minor_weight(X, si, basis) for si in range(len(X.singularities))]
    return weights


class TestSingularWeightAgreement:
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
    def test_int_rows_match_the_reference_route(self, p):
        # seven singularities per characteristic, five with a branch at INF;
        # the orders are non-classical for several small p
        field = GF(p) if p else QQ
        weights = [w for X in _agreement_curves(field) for w in _assert_agreement(X)]
        assert len(weights) == 7

    def test_large_rational_location(self):
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(982451653, 7919))])
        assert _assert_agreement(X) == [22]

    def test_generator_numerator_with_several_denominators(self):
        # the Leibniz terms of one row must share one scale; here the
        # generator's numerator has coefficients over 1, 63, 1323, 83349
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(1, 3)),
                               MonomialSingularity(QQ, S23, Fraction(-3, 7))])
        basis = dualizing_basis(X)
        gen = basis.differentials[basis.generator_index[1]]
        assert len({c.denominator for c in gen.num.coeffs}) >= 3
        assert _assert_agreement(X) == [43, 15]

    @pytest.mark.parametrize("gens, locations, p, weight", [
        ([3, 5], [0, 1], 0, 248),
        ([3, 4], [0, 1, 2], 0, 238),
        ([4, 5], [0, 1], 7, 849),
    ], ids=["3-5-at-0-1", "3-4-at-0-1-2", "4-5-at-0-1-GF7"])
    def test_baseline_curves_match_the_global_minor(self, gens, locations, p, weight):
        # genus 8, 9 and 12; the global minor is the slow side, so only the
        # singularity at 1, where the local parameter is shifted, is compared
        field = GF(p) if p else QQ
        S = NumericalSemigroup.from_generators(gens)
        X = RationalCurve(field, [MonomialSingularity(field, S, field(q)) for q in locations])
        basis = dualizing_basis(X)
        weights = [singular_weight(X, si, basis) for si in range(len(locations))]
        assert weights == [weight] * len(locations)
        assert _global_minor_weight(X, 1, basis) == weight

    def test_vanishing_minor_is_an_internal_failure(self):
        t = [0, 1]
        for q in (QQ(0), Fraction(2, 3), INF):
            with pytest.raises(curve_module.TotalMismatch, match="vanished"):
                curve_module._local_order([[t, [1, 1]], [[0, 2], [2, 2]]], q, 0)

    @pytest.mark.parametrize("p", [0, 5])
    def test_local_order_reads_high_orders(self, p):
        # det = (t - 1)^20 (t + 2) t^3 of degree 24: at 1 the pivot needs K
        # past 20
        field = GF(p) if p else QQ
        t = Polynomial.variable(field)
        a, b, c = (t - 1) ** 20 * (t + 2), t ** 3, t ** 5 + 1
        rows = [[list(a._ints()[0]), list(c._ints()[0])], [[], list(b._ints()[0])]]
        orders = [curve_module._local_order(rows, q, p)
                  for q in (field(1), field(0), field(-2), field(4), INF)]
        assert orders == [20, 3, 1, 0, -24]


def _system_curves(p):
    """The TestSingularWeightAgreement curves over QQ or GF(p) and <3,4> at
    INF, 0 and 1, whose first singularity sits at INF; for p None, the
    gallery's curves."""
    if p is None:
        def mono(gens, q):
            return RationalCurve(GF(q), [MonomialSingularity(
                GF(q), NumericalSemigroup.from_generators(gens), GF(q)(0))])
        return [quartic_cusp_curve(2), perturbed_cusp_curve(0), perturbed_cusp_curve(2),
                perturbed_cusp_curve(3), double_cusp_curve(), node_curve(), tacnode_curve(),
                RationalCurve(QQ, [TwoBranchSingularity(asymmetric_branch_ring(),
                                                        (Fraction(0), Fraction(1)))]),
                mono([4, 6, 11], 2), mono([3, 5], 3), mono([4, 5], 5)]
    field = GF(p) if p else QQ
    return _agreement_curves(field) + [RationalCurve(
        field, [MonomialSingularity(field, S34, q) for q in (INF, field(0), field(1))])]


class TestOneLinearSystem:
    """dualizing_basis hands its numerators over the ansatz denominator to
    LinearSystem.over; the reduced differentials give the same system."""

    @pytest.mark.parametrize("p", [None, 0, 2, 3, 7], ids=["gallery", "QQ", "GF2", "GF3", "GF7"])
    def test_same_system_both_ways(self, p, monkeypatch):
        nulls = []

        def recording(*args):
            nulls.append(scalar_nullspace(*args))
            return nulls[-1]

        monkeypatch.setattr(curve_module, "scalar_nullspace", recording)
        for X in _system_curves(p):
            basis = dualizing_basis(X)
            V, W = basis._system, LinearSystem(basis.differentials)
            assert V.denominator == W.denominator and V.numerators == W.numerators
            common = V.denominator
            for n in V.numerators:
                common = common.gcd(n)
            assert common.degree == 0
            # the sort before: the nullspace's differentials, each vector
            # over its entry at its free column (its last nonzero one),
            # reduced, by their order at the first branch
            q = X.singularities[0].branches()[0].location
            reduced = [RationalFunction(Polynomial(X.field, vec) / next(x for x in vec[::-1] if x),
                                        V.denominator) for vec in nulls[-1]]
            assert basis.differentials == tuple(
                sorted(reduced, key=lambda r: differential_order_at(r, q)))

    @pytest.mark.parametrize("p", [None, 0, 2, 3, 7], ids=["gallery", "QQ", "GF2", "GF3", "GF7"])
    def test_weights_match_the_pole_term_formula(self, p):
        rng = random.Random(1900 + (p or 1))
        for X in _system_curves(p):
            V = dualizing_basis(X)._system
            order_sequence(V)
            points = (X.singular_locations() + [INF] + V._det.rational_roots()
                      + [X.field(rng.randint(-9, 9)) for _ in range(3)])
            for q in points:
                assert differential_weight_at(V, q) == pole_term_weight_at(V, q)


class TestWeightReport:
    def test_double_cusp(self):
        rep = weight_report(double_cusp_curve())
        assert rep.singular_weights == [103, 103]
        assert rep.smooth_divisor.degree == 4
        assert all(m == 1 for _p, m in rep.smooth_divisor)
        assert rep.total == 210 == rep.expected

    def test_quartic_cusp_char2(self):
        rep = weight_report(quartic_cusp_curve(2))
        assert rep.singular_weights == [32]
        assert rep.smooth_divisor.degree == 0
        assert rep.total == 32

    def test_single_cusp_char0(self):
        rep = weight_report(quartic_cusp_curve(0))
        assert rep.singular_weights == [22]
        entries = {(str(p) if p is not INF else "inf"): m
                   for p, m in rep.smooth_divisor}
        assert entries == {"inf": 2}
        assert rep.total == 24

    def test_conductor_lower_bound(self):
        for X in (quartic_cusp_curve(2), perturbed_cusp_curve(2), tacnode_curve()):
            rep = weight_report(X)
            for sing, w in zip(X.singularities, rep.singular_weights):
                assert w >= 2 * sing.delta * rep.N
                if X.genus > 1:
                    assert w > 0

    def test_json_shape(self):
        rep = weight_report(perturbed_cusp_curve(0))
        data = rep.to_json()
        assert data["orders"] == [0, 1, 2] and data["N"] == 3
        assert data["weights"] == [{"location": "0", "weight": 22}]
        assert data["smooth"] == [{"factor": "t^2 - 6", "multiplicity": 1,
                                   "degree": 2}]
        assert data["total"] == data["expected"] == 24


class TestClosedForms:
    def test_monomial_curve_weights(self):
        assert monomial_curve_weights(S34, 2)[:2] == (32, 0)
        assert tuple(monomial_curve_weights(S34, 2)[2]) == (0, 1, 4)
        assert monomial_curve_weights(S34, 0)[:2] == (22, 2)
        cusp = NumericalSemigroup.from_generators([2, 3])
        assert monomial_curve_weights(cusp, 0)[:2] == (0, 0)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            monomial_curve_weights(NumericalSemigroup.from_gaps([1, 2]), 0)

    def test_unibranch_formula(self):
        cusp = NumericalSemigroup.from_generators([2, 3])
        for g in range(1, 8):
            assert unibranch_weight_formula(cusp, g, 0) == g * g - 1
        assert unibranch_weight_formula(S34, 6, 0) == 103
        assert unibranch_weight_formula(S34, 3, 0) == 22

    def test_two_monomial_weights(self):
        assert two_monomial_weights(S34, S34, 3) == (103, 103, 4)
        assert two_monomial_weights(S34, S34, 1) == (105, 105, 0)
        assert two_monomial_weights(S34, S34, 2) == (105, 103, 2)
        with pytest.raises(ValueError):
            two_monomial_weights(S34, S34, 4)

    def test_smooth_count_formula(self):
        cusp = NumericalSemigroup.from_generators([2, 3])
        assert smooth_count_formula([S34, S34]) == 4
        assert smooth_count_formula([cusp]) == 0
        assert smooth_count_formula([cusp, cusp, cusp]) == 0


class TestTwoSingularityCases:
    def test_case1_direct(self):
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                               MonomialSingularity(QQ, S34, INF)])
        assert detect_two_singularity_case(X) == (1, 0)
        rep = weight_report(X)
        assert rep.singular_weights == [105, 105]
        assert rep.smooth_divisor.degree == 0

    def test_case2_direct(self):
        t = Polynomial.variable(QQ)
        u2 = (t - 1) / t
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                               MonomialSingularity(QQ, S34, Fraction(1), uniformizer=u2)])
        assert detect_two_singularity_case(X) == (2, 0)
        rep = weight_report(X)
        assert rep.singular_weights == [105, 103]
        assert rep.smooth_divisor.degree == 2

    def test_case3_direct(self):
        X = double_cusp_curve()
        assert detect_two_singularity_case(X) == (3, 0)

    @pytest.mark.parametrize("S", [S23, S34], ids=str)
    def test_case2_formula_in_both_orientations(self, S):
        # the singularity at the pole of the other uniformizer may be
        # declared first or second; the formula takes it as S1 either way
        t = Polynomial.variable(QQ)
        pair = [MonomialSingularity(QQ, S34, Fraction(0), uniformizer=t / (t - 1)),
                MonomialSingularity(QQ, S, Fraction(1))]
        for sings, first in ((pair, 1), (pair[::-1], 0)):
            X = RationalCurve(QQ, sings)
            assert detect_two_singularity_case(X) == (2, first)
            w_first, w_other, smooth = two_monomial_weights(
                sings[first].semigroup, sings[1 - first].semigroup, 2)
            weights = [w_first, w_other] if first == 0 else [w_other, w_first]
            rep = weight_report(X)
            assert (rep.singular_weights, rep.smooth_divisor.degree) == (weights, smooth)


class TestConsistency:
    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_formula_vs_pipeline_sweep(self, p):
        field = QQ if p == 0 else GF(p)
        for S in symmetric_semigroups(6):
            X = RationalCurve(field, [MonomialSingularity(field, S, field(0))])
            rep = weight_report(X)
            w_p, w_inf, orders = monomial_curve_weights(S, p)
            assert tuple(rep.orders) == tuple(orders)
            assert rep.singular_weights == [w_p]
            inf_weight = sum(m for place, m in rep.smooth_divisor if place is INF)
            assert inf_weight == w_inf
            assert rep.smooth_divisor.degree == w_inf

    def test_partial_normalization_consistency(self):
        # monomial singularity plus a simple cusp: the weight of the first
        # equals the closed form fed with the direct weight of its point on
        # the partial normalization
        cusp = NumericalSemigroup.from_generators([2, 3])
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                               MonomialSingularity(QQ, cusp, Fraction(1))])
        rep = weight_report(X)
        Y = RationalCurve(QQ, [MonomialSingularity(QQ, cusp, Fraction(1))])
        w_y_q = smooth_weight_at(Y, Fraction(0))
        g = X.genus
        assert rep.singular_weights[0] == unibranch_weight_formula(S34, g, w_y_q)
        Y2 = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0))])
        w_y2 = smooth_weight_at(Y2, Fraction(1))
        assert rep.singular_weights[1] == unibranch_weight_formula(cusp, g, w_y2)
        assert rep.total == g ** 3 - g

    def test_smooth_weight_at_rejects_singular_location(self):
        X = quartic_cusp_curve(0)
        with pytest.raises(ValueError):
            smooth_weight_at(X, Fraction(0))

    def test_three_cusps(self):
        cusp = NumericalSemigroup.from_generators([2, 3])
        X = RationalCurve(QQ, [MonomialSingularity(QQ, cusp, Fraction(k))
                               for k in range(3)])
        rep = weight_report(X)
        assert rep.singular_weights == [8, 8, 8]
        assert rep.smooth_divisor.degree == 0
        assert rep.total == 24 == 3 ** 3 - 3

    def test_two_branch_direct_pipeline_char_p(self):
        F5 = GF(5)
        ring = validate_ring(F5, [([1, 0], [1, 0]), ([0, 1], [0, 1])], (2, 2))
        X = RationalCurve(F5, [TwoBranchSingularity(ring, (F5(0), F5(1)))])
        rep = weight_report(X)
        assert rep.singular_weights == [4]
        assert rep.smooth_divisor.degree == 2
        assert rep.total == 6 == rep.expected

    def test_mixed_unibranch_and_two_branch(self):
        # monomial cusp plus a node on one curve: the node weight matches
        # (g-1)g + W(Q1) + W(Q2) with the normalization weights computed on
        # the partially normalized curve
        node = validate_ring(QQ, [([1], [1])], (1, 1))
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(2)),
                               TwoBranchSingularity(node, (Fraction(0), Fraction(1)))])
        g = X.genus
        assert g == 4
        rep = weight_report(X)
        assert rep.total == g ** 3 - g
        Y = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(2))])
        w_q1 = smooth_weight_at(Y, Fraction(0))
        w_q2 = smooth_weight_at(Y, Fraction(1))
        assert rep.singular_weights[1] == (g - 1) * g + w_q1 + w_q2

    def test_unibranch_at_infinity(self):
        # the perturbed cusp moved to the infinite chart: same weights, and
        # the smooth points land at the inverse-image roots of t^2 - 6
        sing = UnibranchSingularity(QQ, [[1], [0, 0, 0, 1, 0, 1],
                                         [0, 0, 0, 0, 1]], 6, INF)
        rep = weight_report(RationalCurve(QQ, [sing]))
        assert rep.singular_weights == [22]
        assert rep.smooth_divisor.to_json() == [
            {"factor": "t^2 - 1/6", "multiplicity": 1, "degree": 2}]
        assert rep.total == 24


class TestLocationsAreCoercedIntoTheField:
    """A location may be given as an int, a Fraction or a string, as any
    coefficient may; it names the same point as the field element."""

    def test_int_and_fraction_locations_over_gf7(self):
        F7 = GF(7)
        for given, point in [(3, F7(3)), (Fraction(1, 2), F7(4)), ("1/2", F7(4))]:
            sing = MonomialSingularity(F7, S34, given)
            assert sing.location == point and isinstance(sing.location, type(point))
            expected = weight_report(RationalCurve(F7, [MonomialSingularity(F7, S34, point)]))
            assert weight_report(RationalCurve(F7, [sing])).to_json() == expected.to_json()

    def test_a_string_location_over_qq(self):
        rep = weight_report(RationalCurve(QQ, [MonomialSingularity(QQ, S34, "1/2")]))
        expected = weight_report(RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(1, 2))]))
        assert rep.to_json() == expected.to_json()
        assert rep.to_json()["weights"][0]["location"] == "1/2"

    def test_locations_equal_in_the_field_collide(self):
        F7 = GF(7)
        cusp = NumericalSemigroup.from_generators([2, 3])
        with pytest.raises(ValueError, match="^singularity locations must be pairwise distinct$"):
            RationalCurve(F7, [MonomialSingularity(F7, cusp, 0), MonomialSingularity(F7, cusp, 7)])
        node = validate_ring(F7, [([1], [1])], (1, 1))
        with pytest.raises(ValueError, match="^branch locations must be distinct$"):
            TwoBranchSingularity(node, (0, 7))
        with pytest.raises(ValueError, match="^branch locations must be distinct$"):
            TwoBranchSingularity(node, (INF, INF))
        assert TwoBranchSingularity(node, (INF, 7)).locations == (INF, F7(0))

    def test_a_uniformizer_over_another_field_is_refused(self):
        t = RationalFunction(Polynomial.variable(QQ))
        with pytest.raises(ValueError, match=r"^uniformizer is over QQ, the curve over GF\(7\)$"):
            MonomialSingularity(GF(7), S34, 0, uniformizer=t)
        node = validate_ring(GF(7), [([1], [1])], (1, 1))
        with pytest.raises(ValueError, match=r"^uniformizer is over QQ, the curve over GF\(7\)$"):
            TwoBranchSingularity(node, (0, 1), uniformizers=(None, t - 1))
        assert MonomialSingularity(QQ, S34, 0, uniformizer=t).uniformizer == t

    def test_a_singularity_over_another_field_is_refused(self):
        cusp = NumericalSemigroup.from_generators([2, 3])
        for sing_field, curve_field in [(QQ, GF(7)), (GF(5), GF(7)), (GF(7), QQ)]:
            sing = MonomialSingularity(sing_field, cusp, 0)
            message = "singularity 1 is over %r, the curve over %r" % (sing_field, curve_field)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                RationalCurve(curve_field, [MonomialSingularity(curve_field, cusp, 1), sing])
