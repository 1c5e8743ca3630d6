"""Acceptance suite: one test per criterion, each printing a pass line.

All arithmetic is exact, so every comparison below is equality of integers
or of exact structures; the only tolerances are the stated wall-clock
budgets.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from weierforge.curve import (
    MonomialSingularity,
    RationalCurve,
    TwoBranchSingularity,
    monomial_curve_weights,
    two_monomial_weights,
    unibranch_weight_formula,
    weight_report,
)
from weierforge.exact import GF, INF, QQ, Polynomial, RationalFunction
from weierforge.gallery import (
    node_ring,
    perturbed_cusp_curve,
    quartic_cusp_curve,
    double_cusp_curve,
    asymmetric_branch_ring,
    tacnode_ring,
)
from weierforge.numsg import NumericalSemigroup
from weierforge.padic import binom_mod_p, uses_all_weight
from weierforge.valsg2 import (
    edge_points,
    symmetry_check,
    two_branch_weight_formula,
    v_systems_weights,
    value_semigroup,
)
from weierforge.wronski import LinearSystem, differential_weight_at, order_sequence, wronskian
from conftest import (
    random_rational_function,
    random_semigroup,
    symmetric_semigroups,
)


def _report(label, elapsed, budget):
    print("PASS %-60s (%.2fs / budget %ss)" % (label, elapsed, budget))
    assert elapsed < budget


def _two_branch_curve(ring):
    return RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])


def test_criterion_1_quartic_cusp_char2():
    start = time.time()
    rep = weight_report(quartic_cusp_curve(2))
    assert tuple(rep.orders) == (0, 1, 4)
    assert rep.singular_weights == [32]
    assert rep.smooth_divisor.degree == 0
    assert rep.total == 32 == 3 * 4 + 4 * 5
    _report("criterion 1: quartic cusp curve in characteristic 2", time.time() - start, 1.0)


def test_criterion_2_perturbed_cusp_three_characteristics():
    start = time.time()
    rep0 = weight_report(perturbed_cusp_curve(0))
    assert rep0.singular_weights == [22]
    smooth = rep0.smooth_divisor.to_json()
    assert smooth == [{"factor": "t^2 - 6", "multiplicity": 1, "degree": 2}]
    rep3 = weight_report(perturbed_cusp_curve(3))
    assert rep3.singular_weights == [24] and rep3.smooth_divisor.degree == 0
    rep2 = weight_report(perturbed_cusp_curve(2))
    assert rep2.singular_weights == [24] and rep2.smooth_divisor.degree == 0
    _report("criterion 2: perturbed cusp in characteristics 0, 3, 2", time.time() - start, 1.0)


def test_criterion_3_double_cusp_genus6():
    start = time.time()
    rep = weight_report(double_cusp_curve())
    assert rep.curve.genus == 6
    assert rep.singular_weights == [103, 103]
    assert rep.smooth_divisor.degree == 4
    assert all(m == 1 for _p, m in rep.smooth_divisor)
    assert rep.total == 210 == 6 ** 3 - 6
    _report("criterion 3: double cusp curve of genus 6", time.time() - start, 5.0)


@pytest.mark.parametrize("gens,p", [([4, 6, 11], 2), ([3, 5], 3), ([4, 5], 5)])
def test_criterion_4_full_weight_singularities(gens, p):
    start = time.time()
    S = NumericalSemigroup.from_generators(gens)
    assert uses_all_weight(S.gaps, p)
    w_p, w_inf, orders = monomial_curve_weights(S, p)
    assert w_inf == 0
    field = GF(p)
    rep = weight_report(RationalCurve(field, [MonomialSingularity(field, S, field(0))]))
    g = S.genus
    assert rep.singular_weights == [w_p]
    assert rep.smooth_divisor.degree == 0
    assert rep.total == (2 * g - 2) * (g + rep.N) == w_p
    _report("criterion 4: <%s> carries all weight at p=%d"
            % (",".join(map(str, gens)), p), time.time() - start, 5.0)


def test_criterion_5_formula_vs_pipeline_sweep():
    start = time.time()
    semigroups = symmetric_semigroups(6)
    assert len(semigroups) == 16
    for S in semigroups:
        g = S.genus
        X = RationalCurve(QQ, [MonomialSingularity(QQ, S, Fraction(0))])
        rep = weight_report(X)
        w_p, w_inf, _orders = monomial_curve_weights(S, 0)
        assert rep.singular_weights == [w_p]
        assert rep.singular_weights[0] == unibranch_weight_formula(S, g, 0)
        assert rep.smooth_divisor.degree == w_inf
        assert rep.total == g ** 3 - g
    _report("criterion 5: closed form equals pipeline for all %d symmetric "
            "semigroups of genus <= 6" % len(semigroups), time.time() - start, 60.0)


def test_criterion_6_two_singularity_cases():
    start = time.time()
    S34 = NumericalSemigroup.from_generators([3, 4])
    t = Polynomial.variable(QQ)

    X1 = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                            MonomialSingularity(QQ, S34, INF)])
    rep1 = weight_report(X1)
    assert (rep1.singular_weights, rep1.smooth_divisor.degree) == ([105, 105], 0)
    assert two_monomial_weights(S34, S34, 1) == (105, 105, 0)

    X2 = RationalCurve(QQ, [MonomialSingularity(QQ, S34, Fraction(0)),
                            MonomialSingularity(QQ, S34, Fraction(1),
                                                uniformizer=(t - 1) / t)])
    rep2 = weight_report(X2)
    assert (rep2.singular_weights, rep2.smooth_divisor.degree) == ([105, 103], 2)
    assert two_monomial_weights(S34, S34, 2) == (105, 103, 2)

    rep3 = weight_report(double_cusp_curve())
    assert (rep3.singular_weights, rep3.smooth_divisor.degree) == ([103, 103], 4)
    assert two_monomial_weights(S34, S34, 3) == (103, 103, 4)
    _report("criterion 6: mutual-pole case formulas match direct computation",
            time.time() - start, 60.0)


def test_criterion_7_two_branch_identities(ring_corpus):
    start = time.time()
    rings = [node_ring(), tacnode_ring(), asymmetric_branch_ring()] + list(ring_corpus)
    assert len(ring_corpus) >= 10
    for ring in rings:
        S = value_semigroup(ring)
        xi1, xi2 = S.conductor
        # conductor coordinates and delta decomposition
        assert (xi1, xi2) == (S.I + 2 * S.delta1, S.I + 2 * S.delta2)
        assert S.delta == S.I + S.delta1 + S.delta2
        # maximal coordinate sums
        assert sum(a for a, _b in S.maximals) == S.I * (S.I - 1) // 2 + S.delta1 * S.I
        assert sum(b for _a, b in S.maximals) == S.I * (S.I - 1) // 2 + S.delta2 * S.I
        # fiber / gap / edge equivalences on both axes
        for n in range(xi1):
            if n in S.S1:
                assert (((n, xi2) in S)
                        == ((xi1 - 1 - n) in S.S1.gaps)
                        == (n in S.infinite_vertical))
        for n in range(xi2):
            if n in S.S2:
                assert (((xi1, n) in S)
                        == ((xi2 - 1 - n) in S.S2.gaps)
                        == (n in S.infinite_horizontal))
        assert len([x for x in S.infinite_vertical if x < xi1]) == S.delta1
        assert len([y for y in S.infinite_horizontal if y < xi2]) == S.delta2
        # symmetry properties and the distinguished maximal point
        ok, witness = symmetry_check(S)
        assert ok, witness
        assert S.mu in set(S.maximals)
    mismatch = value_semigroup(
        __import__("weierforge.valsg2", fromlist=["validate_ring"]).validate_ring(
            QQ, [([1, 0], [1, 0])], (2, 2), strict=False))
    assert not symmetry_check(mismatch)[0]
    _report("criterion 7: semigroup identities on %d two-branch rings" % len(rings),
            time.time() - start, 60.0)


def test_criterion_8_two_branch_weight_formula(ring_corpus):
    start = time.time()
    cases = [node_ring(), tacnode_ring()] + list(ring_corpus)
    for ring in cases:
        X = _two_branch_curve(ring)
        g = X.genus
        S = value_semigroup(ring)
        rep = weight_report(X)
        w1, w2 = v_systems_weights(X)
        formula = two_branch_weight_formula(S, g, w1, w2)
        assert formula == rep.singular_weights[0]
        assert rep.total == g ** 3 - g
        if (w1, w2) == (0, 0):
            not_overweight_smooth = S.I * (g - 1) + S.S1.weight() + S.S2.weight()
            assert rep.smooth_divisor.degree == not_overweight_smooth
        if ring is cases[1]:
            assert rep.singular_weights == [4] and rep.smooth_divisor.degree == 2
    _report("criterion 8: adapted-basis weight formula matches the pipeline "
            "on %d curves" % len(cases), time.time() - start, 120.0)


def test_criterion_9_property_suites():
    start = time.time()
    # Hasse product rule, 100 randomized cases across characteristics
    cases = 0
    for p in (0, 2, 3, 5):
        field = QQ if p == 0 else GF(p)
        rng = random.Random(900 + p)
        while cases < 25 * (1 + (0, 2, 3, 5).index(p)):
            f = random_rational_function(rng, field)
            g = random_rational_function(rng, field)
            if f.is_zero() or g.is_zero():
                continue
            i = rng.randint(0, 6)
            fl, gl = f.hasse_list(i), g.hasse_list(i)
            rhs = sum((fl[a] * gl[i - a] for a in range(i + 1)),
                      RationalFunction(Polynomial(field, [])))
            assert (f * g).hasse(i) == rhs
            cases += 1
    assert cases >= 100

    # Lucas against factorials: far more than 100 cases
    checked = 0
    for p in (2, 3, 5, 7):
        for n in range(40):
            for k in range(n + 1):
                assert binom_mod_p(n, k, p) == math.comb(n, k) % p
                checked += 1
    assert checked >= 100

    # small-element identity and largest-gap bound, 120 semigroups
    rng = random.Random(888)
    for _ in range(120):
        S = random_semigroup(rng)
        d = S.genus
        small = S.small_elements()
        assert sum(n - i for i, n in enumerate(small)) == (d - 1) * d - S.weight()
        if d:
            assert S.gaps[-1] <= 2 * d - 1
            assert (S.gaps[-1] == 2 * d - 1) == S.is_symmetric()

    # basis and coordinate invariance of weights, >= 100 point checks
    t = Polynomial.variable(QQ)
    one = Polynomial(QQ, [1])
    V = LinearSystem([one / one, t ** 4 / (1 - t ** 2), t ** 3 / (1 - t ** 2)])
    base_eps = tuple(order_sequence(V))
    rng = random.Random(999)
    points = [Fraction(k) for k in range(2, 22)] + [INF]
    base_weights = {str(q): differential_weight_at(V, q) for q in points}
    checks = 0
    for trial in range(5):
        while True:
            mat = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                   - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                   + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
            if det:
                break
        W = LinearSystem([sum((mat[i][j] * V.functions[j] for j in range(3)),
                              RationalFunction(Polynomial(QQ, [])))
                          for i in range(3)])
        assert tuple(order_sequence(W)) == base_eps
        for q in points:
            assert differential_weight_at(W, q) == base_weights[str(q)]
            checks += 1
    # coordinate change t -> t + 1 permutes the weights with the points
    shift = (t + 1) / one
    Ws = LinearSystem([f.num(shift) / f.den(shift) for f in V.functions])
    for q in [Fraction(k) for k in range(1, 21)]:
        assert differential_weight_at(Ws, q) == base_weights[str(q + 1)]
        checks += 1
    assert checks >= 100
    _report("criterion 9: quantified property suites (exact, zero tolerance)",
            time.time() - start, 120.0)
