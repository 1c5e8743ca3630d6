"""Named built-in scenarios with their published values.

Each entry builds a curve or ring, runs the analysis, asserts the expected
numbers, and returns a JSON-ready report.  A failed assertion raises
ScenarioMismatch, an invariant failure, which the CLI turns into exit 3.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import (
    MonomialSingularity,
    RationalCurve,
    TwoBranchSingularity,
    UnibranchSingularity,
    monomial_curve_weights,
    weight_report,
)
from .exact import GF, QQ
from .numsg import NumericalSemigroup
from .padic import uses_all_weight
from .valsg2 import (
    symmetry_check,
    two_branch_weight_formula,
    v_systems_weights,
    validate_ring,
    value_semigroup,
)


class ScenarioMismatch(AssertionError):
    """A built-in scenario produced a value different from its published one."""


def _expect(condition, label):
    if not condition:
        raise ScenarioMismatch("scenario check failed: %s" % label)


def _monomial(k, n):
    c = [0] * n
    c[k] = 1
    return c


def quartic_cusp_curve(p=2):
    """Plane quartic y^3 z = x^4: one monomial singularity with semigroup
    <3,4> at 0."""
    field = GF(p) if p else QQ
    S = NumericalSemigroup.from_generators([3, 4])
    return RationalCurve(field, [MonomialSingularity(field, S, field(0))])


def perturbed_cusp_curve(p=0):
    """Local ring k + k(t^3+t^5) + k t^4 + t^6 k[[t]] at 0; same value
    semigroup <3,4> but not monomial."""
    field = GF(p) if p else QQ
    sing = UnibranchSingularity(field, [[1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1]],
                                6, field(0))
    return RationalCurve(field, [sing])


def double_cusp_curve():
    """Two monomial <3,4> singularities at 0 and 1 over the rationals."""
    S = NumericalSemigroup.from_generators([3, 4])
    return RationalCurve(QQ, [MonomialSingularity(QQ, S, Fraction(0)),
                              MonomialSingularity(QQ, S, Fraction(1))])


def node_ring():
    return validate_ring(QQ, [([1], [1])], (1, 1))


def node_curve():
    return RationalCurve(QQ, [TwoBranchSingularity(node_ring(), (Fraction(0), Fraction(1)))])


def tacnode_ring():
    return validate_ring(QQ, [([1, 0], [1, 0]), ([0, 1], [0, 1])], (2, 2))


def tacnode_curve():
    return RationalCurve(QQ, [TwoBranchSingularity(tacnode_ring(), (Fraction(0), Fraction(1)))])


def asymmetric_branch_ring():
    """Two-branch Gorenstein ring whose first branch semigroup is not
    symmetric: built from H = <4,5,7> (so S1 = <3,4,5> with gaps {1,2}),
    gluing a_0 = b_0, a_3 = b_1, a_6 = b_2 and killing a_i outside S1;
    conductor (7, 3)."""
    return validate_ring(QQ, [
        ([1] + [0] * 6, [1, 0, 0]),
        (_monomial(3, 7), _monomial(1, 3)),
        (_monomial(6, 7), _monomial(2, 3)),
        (_monomial(4, 7), [0, 0, 0]),
        (_monomial(5, 7), [0, 0, 0]),
    ], (7, 3))


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def run_example_2_1():
    X = quartic_cusp_curve(2)
    rep = weight_report(X)
    _expect(tuple(rep.orders) == (0, 1, 4), "order sequence (0,1,4)")
    _expect(rep.singular_weights == [32], "singular weight 32")
    _expect(rep.smooth_divisor.degree == 0, "no other Weierstrass points")
    _expect(rep.total == 32 == 3 * 4 + 4 * 5, "total 32")
    return {"scenario": "example-2.1", "report": rep.to_json()}


# the characteristics with published weights for example 2.9; for p from 5
# to 23 the curve has weight 22 and weight 1 at the roots of t^2 - 6, as over QQ
EXAMPLE_2_9_CHARACTERISTICS = (0, 2, 3)


def run_example_2_9(p=None):
    chars = EXAMPLE_2_9_CHARACTERISTICS if p is None else (p,)
    out = []
    for q in chars:
        X = perturbed_cusp_curve(q)
        rep = weight_report(X)
        if q == 0:
            _expect(rep.singular_weights == [22], "weight 22 in characteristic 0")
            smooth = rep.smooth_divisor.to_json()
            _expect(len(smooth) == 1 and smooth[0]["factor"] == "t^2 - 6"
                    and smooth[0]["multiplicity"] == 1 and smooth[0]["degree"] == 2,
                    "two weight-1 points at the roots of t^2 - 6")
        else:
            _expect(rep.singular_weights == [24], "weight 24 in characteristic %d" % q)
            _expect(rep.smooth_divisor.degree == 0, "unique Weierstrass point")
        out.append({"characteristic": q, "report": rep.to_json()})
    return {"scenario": "example-2.9", "runs": out}


def run_example_3_6():
    rep = weight_report(double_cusp_curve())
    _expect(rep.singular_weights == [103, 103], "both singular weights 103")
    _expect(rep.smooth_divisor.degree == 4, "four smooth points")
    _expect(all(m == 1 for _pl, m in rep.smooth_divisor), "smooth points of weight one")
    _expect(rep.total == 210, "total 210")
    return {"scenario": "example-3.6", "report": rep.to_json()}


def _run_full_weight_semigroup(gens, p):
    S = NumericalSemigroup.from_generators(gens)
    _expect(uses_all_weight(S.gaps, p), "shifted gaps satisfy the digit criterion")
    w_p, w_inf, orders = monomial_curve_weights(S, p)
    _expect(w_inf == 0, "no weight at infinity")
    field = GF(p)
    X = RationalCurve(field, [MonomialSingularity(field, S, field(0))])
    rep = weight_report(X)
    g = S.genus
    _expect(rep.singular_weights == [w_p] and rep.smooth_divisor.degree == 0,
            "singularity carries the full total")
    _expect(rep.total == (2 * g - 2) * (g + rep.N), "total (2g-2)(g+N)")
    return {"scenario": "semigroup-%s" % "-".join(map(str, gens)),
            "characteristic": p, "semigroup": S.to_json(),
            "orders": list(orders), "report": rep.to_json()}


def run_semigroup_4_6_11():
    return _run_full_weight_semigroup([4, 6, 11], 2)


def run_semigroup_3_5():
    return _run_full_weight_semigroup([3, 5], 3)


def run_semigroup_4_5():
    return _run_full_weight_semigroup([4, 5], 5)


def _run_two_branch(name, ring, S2, expected_weight, expected_smooth):
    sym, witness = symmetry_check(S2)
    _expect(sym, "value semigroup symmetric")
    _expect(S2.conductor == (S2.I + 2 * S2.delta1, S2.I + 2 * S2.delta2),
            "conductor coordinates")
    _expect(S2.delta == S2.I + S2.delta1 + S2.delta2, "delta decomposition")
    X = RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])
    rep = weight_report(X)
    _expect(rep.singular_weights == [expected_weight], "singular weight")
    _expect(rep.smooth_divisor.degree == expected_smooth, "smooth count")
    w1, w2 = v_systems_weights(X)
    formula = two_branch_weight_formula(S2, X.genus, w1, w2)
    _expect(formula == expected_weight, "closed-form weight")
    return {"scenario": name, "semigroup": S2.to_json(), "report": rep.to_json(),
            "v_system_weights": [w1, w2]}


def run_node():
    ring = node_ring()
    return _run_two_branch("node", ring, value_semigroup(ring), 0, 0)


def run_tacnode():
    ring = tacnode_ring()
    return _run_two_branch("tacnode", ring, value_semigroup(ring), 4, 2)


def run_example_4_10():
    ring = asymmetric_branch_ring()
    S2 = value_semigroup(ring)
    _expect(not S2.S1.is_symmetric(), "first branch semigroup not symmetric")
    _expect(S2.conductor == (7, 3) and S2.I == 3 and S2.delta1 == 2
            and S2.delta2 == 0 and S2.delta == 5, "semigroup invariants")
    return _run_two_branch("example-4.10", ring, S2, 108, 12)


SCENARIOS = {
    "example-2.1": run_example_2_1,
    "example-2.9": run_example_2_9,
    "example-3.6": run_example_3_6,
    "semigroup-4-6-11": run_semigroup_4_6_11,
    "semigroup-3-5": run_semigroup_3_5,
    "semigroup-4-5": run_semigroup_4_5,
    "node": run_node,
    "tacnode": run_tacnode,
    "example-4.10": run_example_4_10,
}
