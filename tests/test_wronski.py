import math
import random
from fractions import Fraction

import pytest

from weierforge.exact import (
    GF,
    INF,
    QQ,
    Polynomial,
    RationalFunction,
    _bareiss_insert,
    _cleared,
    _from_ints,
    _hasse_mod_p,
    _homogeneous,
    _horner,
    _signed_last_pivot,
    coprime_refinement,
    fraction_free_rank_det,
    quotient_rows,
    scalar_echelon,
)
from weierforge.wronski import (
    DependentFunctionsError,
    LinearSystem,
    differential_weight_at,
    global_weight_total,
    order_sequence,
    smooth_weight,
    vq_orders,
    weight_divisor,
    wronskian,
)
from weierforge.curve import (
    MonomialSingularity,
    RationalCurve,
    TwoBranchSingularity,
    UnibranchSingularity,
    dualizing_basis,
    weight_report,
)
from weierforge.numsg import NumericalSemigroup
from weierforge.valsg2 import validate_ring
from conftest import bareiss_mod_p, derivative, field_echelon, pole_term_weight_at, random_polynomial


def one(field):
    return Polynomial(field, [1])


def monomial_system(field, exponents):
    t = Polynomial.variable(field)
    return LinearSystem([t ** a / one(field) for a in exponents])


def quartic_cusp_system(p):
    field = GF(p) if p else QQ
    t = Polynomial.variable(field)
    return LinearSystem([one(field) / one(field), t ** 3 / one(field),
                         t ** 4 / one(field)])


def perturbed_system():
    t = Polynomial.variable(QQ)
    return LinearSystem([one(QQ) / one(QQ), t ** 4 / (1 - t ** 2), t ** 3 / (1 - t ** 2)])


def ordinary_wronskian_oracle(functions):
    """Determinant of the matrix of ordinary derivatives, divided by the
    factorial normalization; equals the Hasse-Wronskian in characteristic 0
    at orders (0, 1, ..., s-1).  Cofactor expansion, no shared elimination
    code with the library path."""
    s = len(functions)
    rows = []
    cur = list(functions)
    for i in range(s):
        rows.append(list(cur))
        cur = [derivative(f) for f in cur]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = None
        for j in range(len(mat)):
            minor = [r[:j] + r[j + 1:] for r in mat[1:]]
            term = mat[0][j] * det(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    value = det(rows)
    norm = 1
    for i in range(s):
        norm *= math.factorial(i)
    return value / norm


class TestOrderSequence:
    def test_char2_quartic(self):
        eps = order_sequence(quartic_cusp_system(2))
        assert tuple(eps) == (0, 1, 4) and eps.N == 5

    def test_char0_consecutive(self):
        assert tuple(order_sequence(monomial_system(QQ, [0, 1, 2]))) == (0, 1, 2)

    def test_char0_with_denominators(self):
        assert tuple(order_sequence(perturbed_system())) == (0, 1, 2)

    def test_dependent_rejected(self):
        t = Polynomial.variable(QQ)
        with pytest.raises(DependentFunctionsError):
            LinearSystem([t / one(QQ), (2 * t) / one(QQ)])
        # numerators over a given denominator are ranked the same way
        for field in (QQ, GF(2), GF(7)):
            t = Polynomial.variable(field)
            with pytest.raises(DependentFunctionsError):
                LinearSystem.over(t ** 2 + 1, [t, t ** 3 + 1, t ** 3 + 2 * t + 1])
            with pytest.raises(DependentFunctionsError):
                LinearSystem.over(t - 1, [t, Polynomial(field, [])])

    def test_monomial_exponent_match(self):
        # the order sequence of a monomial tuple matches the binomial-matrix
        # computation from the padic module
        from weierforge.padic import monomial_order_sequence

        rng = random.Random(81)
        for p in (2, 3, 5):
            field = GF(p)
            for _ in range(10):
                exps = sorted(rng.sample(range(10), 3))
                V = monomial_system(field, exps)
                assert tuple(order_sequence(V)) == tuple(
                    monomial_order_sequence(tuple(exps), p))


class TestWronskian:
    def test_char2_quartic(self):
        V = quartic_cusp_system(2)
        t = Polynomial.variable(GF(2))
        assert wronskian(V, (0, 1, 4)) == RationalFunction(t ** 2)

    def test_pair(self):
        V = monomial_system(QQ, [0, 1])
        assert wronskian(V, (0, 1)) == 1

    def test_perturbed_wronskian_value(self):
        # det = c * t^4 (t^2 - 6) / (1 - t^2)^3; after scaling by the cube of
        # the conductor generator coefficient this is the published
        # t^22 (6 - t^2) / (1 - t^2)^6 shape
        V = perturbed_system()
        w = wronskian(V)
        t = Polynomial.variable(QQ)
        expected = (t ** 4) * (t ** 2 - 6) / ((1 - t ** 2) ** 3)
        ratio = w / expected
        assert ratio.num.degree == 0 and ratio.den.degree == 0
        h_cubed = ((1 - t ** 2) / t ** 6) ** 3
        scaled = w / h_cubed
        published = (t ** 22) * (6 - t ** 2) / ((1 - t ** 2) ** 6)
        ratio2 = scaled / published
        assert ratio2.num.degree == 0 and ratio2.den.degree == 0

    def test_against_ordinary_derivative_oracle(self):
        V = perturbed_system()
        assert wronskian(V) == ordinary_wronskian_oracle(list(V))

    def test_oracle_on_random_char0_systems(self):
        rng = random.Random(91)
        t = Polynomial.variable(QQ)
        for _ in range(10):
            exps = sorted(rng.sample(range(7), 3))
            fns = [t ** a / (1 + rng.randint(0, 2) * t) for a in exps]
            try:
                V = LinearSystem(fns)
            except DependentFunctionsError:
                continue
            assert wronskian(V) == ordinary_wronskian_oracle(list(V))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            wronskian(monomial_system(QQ, [0, 1]), (0, 1, 2))


def reference_orders_and_wronskian(V):
    """Greedy order sequence and its wronskian straight from the Hasse
    derivatives of the rational functions, with exact fraction-free rank
    tests: the route wronskian keeps for arbitrary sequences."""
    chosen, rows = [], []
    e = -1
    while len(chosen) < len(V):
        e += 1
        row = [f.hasse(e) for f in V.functions]
        if fraction_free_rank_det(rows + [row])[0] == len(rows) + 1:
            chosen.append(e)
            rows.append(row)
    return tuple(chosen), fraction_free_rank_det(rows)[1]


def reference_wronskian(V, eps):
    return fraction_free_rank_det([[f.hasse(e) for f in V.functions] for e in eps])[1]


def quotient_wronskian(V, eps):
    """The route wronskian took off the order sequence before it used
    fraction_free_rank_det: Bareiss on the quotient_rows P_e = G^(e+1)
    D^(e)(n_j / G), over G^(N+s), N + s the sum of the eps_i + 1."""
    (*numerators, G), _d = _cleared(V.numerators + (V.denominator,))
    rows = quotient_rows(V.field, numerators, G, eps)
    rank, det, sign = bareiss_mod_p(rows, V.characteristic)
    if rank < len(rows):
        return RationalFunction(Polynomial(V.field, []))
    return RationalFunction(_from_ints(V.field, [x * sign for x in det]),
                            _from_ints(V.field, G) ** sum(e + 1 for e in eps))


def seeded_systems(field, seed, count):
    """Independent systems with a nonconstant shared denominator: monomials
    times one rational function (non-classical in small characteristic)
    and monomials over distinct denominators plus polynomial terms."""
    rng = random.Random(seed)
    t = Polynomial.variable(field)
    p = field.characteristic
    top = 2 * p + 2 if 0 < p < 10 else 6
    out = []
    while len(out) < count:
        exps = sorted(rng.sample(range(top), rng.randint(2, 4)))
        if rng.random() < 0.5:
            h = (random_polynomial(rng, field, 2, zero_ok=False)
                 / random_polynomial(rng, field, 2, zero_ok=False))
            fns = [h * t ** a for a in exps]
        else:
            fns = [t ** a / random_polynomial(rng, field, 2, zero_ok=False)
                   + random_polynomial(rng, field, 2) for a in exps]
        try:
            V = LinearSystem(fns)
        except DependentFunctionsError:
            continue
        if V.denominator.degree > 0:
            out.append(V)
    return out


class TestNumeratorRoute:
    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_orders_and_wronskian_match_the_reference(self, p):
        field = GF(p) if p else QQ
        nonclassical = 0
        for V in seeded_systems(field, 300 + p, 12):
            eps, w = reference_orders_and_wronskian(V)
            assert tuple(order_sequence(V)) == eps
            assert wronskian(V) == w
            assert wronskian(V, eps) == w
            assert quotient_wronskian(V, eps) == w
            nonclassical += eps != tuple(range(len(V)))
        if p:
            assert nonclassical > 0

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_other_sequences_use_the_reference_route(self, p):
        field = GF(p) if p else QQ
        differs = 0
        for V in seeded_systems(field, 400 + p, 8):
            eps = tuple(order_sequence(V))
            for other in (eps[:-1] + (eps[-1] + 1,), tuple(range(0, 2 * len(V), 2))):
                if other == eps:
                    continue
                w = wronskian(V, other)
                assert w == reference_wronskian(V, other) == quotient_wronskian(V, other)
                assert wronskian(V, iter(other)) == w
                differs += w != wronskian(V)
        assert differs > 0

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_dependent_sequences_give_the_zero_function(self, p):
        field = GF(p) if p else QQ
        for V in seeded_systems(field, 600 + p, 4):
            eps = (0,) * len(V)
            assert reference_wronskian(V, eps).is_zero()
            assert quotient_wronskian(V, eps).is_zero()
            assert wronskian(V, eps).is_zero()
        # (1, t^2) / (t + 1) over GF(2) has orders (0, 2), and D^(1) t^2 = 0
        t = Polynomial.variable(GF(2))
        V = LinearSystem([1 / (t + 1), t ** 2 / (t + 1)])
        assert tuple(order_sequence(V)) == (0, 2)
        assert reference_wronskian(V, (0, 1)).is_zero()
        assert wronskian(V, (0, 1)).is_zero()
        assert quotient_wronskian(V, (0, 1)).is_zero()
        with pytest.raises(ValueError):
            wronskian(V, (0, -1))

    def test_numerators_over_the_shared_denominator(self):
        for V in seeded_systems(GF(3), 500, 5):
            for f, n in zip(V.functions, V.numerators):
                assert f == RationalFunction(n, V.denominator)
                assert (V.denominator % f.den).is_zero()
            assert V.denominator.leading_coefficient == GF(3).one


def field_element_order_sequence(V):
    """The order-sequence search as it ran on field elements: rows of
    Polynomial Hasse derivatives of the numerators, evaluated by Horner on
    field scalars at t = 2..7 over QQ or at the first six residues over
    GF(p) and ranked by their reduced echelon form, with Bareiss on the polynomial rows
    where every point is singular.  Returns the orders, the wronskian and
    how many rows Bareiss found independent."""
    field, s = V.field, len(V)
    points = [field(k) for k in (range(min(field.characteristic, 6)) if field.characteristic
                                 else range(2, 8))]

    def value(f, x):
        acc = field.zero
        for c in reversed(f.coeffs):
            acc = acc * x + c
        return acc

    chosen, accepted, decided, eps = [], [], 0, -1
    while len(chosen) < s:
        eps += 1
        rows = accepted + [[n.hasse(eps) for n in V.numerators]]
        if any(len(field_echelon([[value(f, x) for f in r] for r in rows])[0]) == len(rows)
               for x in points):
            independent = True
        else:
            independent = fraction_free_rank_det(rows)[0] == len(rows)
            decided += independent
        if independent:
            chosen.append(eps)
            accepted.append(rows[-1])
    rank, det = fraction_free_rank_det(accepted)
    assert rank == s
    return tuple(chosen), det / V.denominator ** s, decided


def singular_at_every_point(field):
    """(1, f, f^2) / (t + 7)^2 with D^(1) f vanishing at every evaluation
    point: the order-1 row (0, D^(1) f, D^(1) f^2) is zero there, so only
    Bareiss finds it independent."""
    t = Polynomial.variable(field)
    p = field.characteristic
    if p == 2:
        f = t ** 3 + t ** 5    # D^(1) f = t^2 (t + 1)^2
    else:
        df = Polynomial(field, [1])
        for x in range(min(p, 6)) if p else range(2, 8):
            df = df * (t - x)
        f = Polynomial(field, [0] + [c / (i + 1) if c else c for i, c in enumerate(df.coeffs)])
        assert derivative(RationalFunction(f)).num == df
    den = (t + 7) ** 2
    return LinearSystem([1 / den, f / den, f ** 2 / den])


class TestIntRowSearch:
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 100003])
    def test_orders_and_wronskian_match_the_field_element_search(self, p):
        field = GF(p) if p else QQ
        systems = seeded_systems(field, 700 + p % 97, 10) + [singular_at_every_point(field)]
        for V in systems:
            eps, w, decided = field_element_order_sequence(V)
            assert tuple(order_sequence(V)) == eps
            assert wronskian(V) == w
        # the last system reaches the Bareiss fallback, which finds the
        # order-1 row independent
        assert decided > 0 and eps[:2] == (0, 1)


def certified_order_sequence(V):
    """The order-sequence search before each candidate row was inserted
    once: the int row D^(e) c_j extends the accepted rows when their values
    at t = 2..7 over QQ, or at the first six residues over GF(p), have full
    rank, and otherwise when Bareiss on all of them keeps full rank; a final
    Bareiss gives the signed determinant over the scale.  Returns the
    orders, that determinant and how many candidates were dependent."""
    s, p = len(V), V.characteristic
    cleared = [n._ints() for n in V.numerators]
    chosen, accepted, dependent, eps = [], [], 0, -1
    while len(chosen) < s:
        eps += 1
        rows = accepted + [[_hasse_mod_p(c, eps, p) for c, _d in cleared]]
        if any(len(scalar_echelon([[_horner(c, x, p) if p else _homogeneous(c, x, 1) for c in r]
                                   for r in rows], p)[0]) == len(rows)
               for x in (range(min(p, 6)) if p else range(2, 8))) \
                or bareiss_mod_p([list(r) for r in rows], p)[0] == len(rows):
            chosen.append(eps)
            accepted = rows
        else:
            dependent += 1
    rank, det, sign = bareiss_mod_p([list(r) for r in accepted], p)
    assert rank == s
    return (tuple(chosen), _from_ints(V.field, [x * sign for x in det],
                                      math.prod(d for _c, d in cleared)), dependent)


class TestRowInsertionSearch:
    @pytest.mark.parametrize("p", [0, 2, 3, 7])
    def test_orders_and_signed_det_match_the_certified_search(self, p):
        field = GF(p) if p else QQ
        systems = seeded_systems(field, 800 + p, 12)
        if p < 7:    # its antiderivative needs a unit 7 over GF(7)
            systems.append(singular_at_every_point(field))
        if p:
            systems += [quartic_cusp_system(p), monomial_system(field, [0, 1, p, p + 2]),
                        monomial_system(field, [0, 4, 5, 8, 9, 10])]
        dependent = 0
        for V in systems:
            eps, det, rejected = certified_order_sequence(V)
            assert tuple(order_sequence(V)) == eps
            assert V._det == det
            dependent += rejected
        # small characteristic: non-classical systems, whose search meets
        # dependent candidates between accepted ones
        assert dependent > 0 if p else dependent == 0

    @pytest.mark.parametrize("p", [3, 7])
    def test_pivot_columns_out_of_order_give_the_sign(self, p):
        # (1, t^p, t) / (t + 1): the order-1 numerator row (0, 0, 1) takes
        # pivot column 2, orders 2..p-1 give zero rows, and order p takes
        # column 1, so the pivot columns (0, 2, 1) are an odd permutation
        field = GF(p)
        t = Polynomial.variable(field)
        V = LinearSystem([1 / (t + 1), t ** p / (t + 1), t / (t + 1)])
        eps, det, rejected = certified_order_sequence(V)
        assert tuple(order_sequence(V)) == eps == (0, 1, p) and rejected == p - 2
        pivots = []
        for e in eps:
            assert _bareiss_insert(pivots, [_hasse_mod_p(n._ints()[0], e, p)
                                            for n in V.numerators], p)
        assert [c for c, _row in pivots] == [0, 2, 1]
        c, last = pivots[-1]
        assert last[c] == [1] and _signed_last_pivot(pivots) == [-1]
        # det [[1, t^p, t], [0, 0, 1], [0, 1, 0]] = -1
        assert V._det == det == Polynomial(field, [-1])
        assert wronskian(V) == reference_orders_and_wronskian(V)[1] == -1 / (t + 1) ** 3


class TestVQOrders:
    def test_monomials_at_origin(self):
        field = QQ
        gaps = [1, 2, 5]
        exps = [0] + [l - 1 for l in gaps[1:]]
        V = monomial_system(field, exps)
        assert vq_orders(V, Fraction(0)) == (0, 1, 4)

    def test_generic_point(self):
        V = monomial_system(QQ, [0, 1, 2])
        assert vq_orders(V, Fraction(5)) == (0, 1, 2)

    def test_char2_generic_point(self):
        # every smooth point of the quartic-cusp system has orders (0,1,4)
        V = quartic_cusp_system(2)
        assert vq_orders(V, GF(2)(1)) == (0, 1, 4)

    def test_perturbed_at_infinity(self):
        assert vq_orders(perturbed_system(), INF) == (0, 1, 2)

    @pytest.mark.parametrize("p", [0, 3])
    def test_orders_of_random_combinations(self, p):
        # every order at q of an element of the span, less the least order
        # of the system there, is one of the listed orders
        field = GF(p) if p else QQ
        rng = random.Random(41 + p)
        t = Polynomial.variable(field)
        D = (t - 1) ** 2 * (t ** 2 + 2)
        V = LinearSystem([one(field) / D, t ** 3 / D, (t ** 5 - t ** 2) / D,
                          (t ** 4 + 2 * t) / one(field)])
        for q in (field(0), field(1), field(2), INF):
            orders = vq_orders(V, q)
            assert orders[0] == 0 and len(set(orders)) == len(V)
            base = min(f.valuation(q) for f in V.functions)
            for _ in range(40):
                coeffs = [field(rng.choice([0, 0, 1, -1, 2])) for _ in V.functions]
                h = sum((c * f for c, f in zip(coeffs, V.functions)),
                        RationalFunction(Polynomial(field, [])))
                if not h.is_zero():
                    assert h.valuation(q) - base in orders


class TestSmoothWeight:
    def test_generic_zero(self):
        V = monomial_system(QQ, [0, 1, 2])
        w, bound, attained = smooth_weight(V, Fraction(7))
        assert w == 0 and bound == 0 and attained

    def test_char2_smooth_points_zero(self):
        V = quartic_cusp_system(2)
        w, bound, attained = smooth_weight(V, GF(2)(1))
        assert w == 0 and bound == 0 and attained

    def test_bound_not_attained_when_the_binomial_matrix_is_singular(self):
        # (1, t + t^2, t^4 + t^5) over GF(2): orders (0, 1, 2), orders
        # (0, 1, 4) at 0, and C(4, 2) = 6 = 0 mod 2 makes C(eps_j(0), eps_i)
        # singular, so the weight exceeds the bound
        t = Polynomial.variable(GF(2))
        V = LinearSystem([RationalFunction(f) for f in (t ** 0, t + t ** 2, t ** 4 + t ** 5)])
        assert smooth_weight(V, GF(2)(0)) == (4, 2, False)

    def test_weight_divisor_perturbed(self):
        V = perturbed_system()
        div = weight_divisor(V, excluded_points=[Fraction(0)])
        entries = div.to_json()
        assert entries == [{"factor": "t^2 - 6", "multiplicity": 1, "degree": 2}]

    def test_pole_points_carry_no_weight(self):
        V = perturbed_system()
        assert differential_weight_at(V, Fraction(1)) == 0
        assert differential_weight_at(V, Fraction(-1)) == 0
        assert differential_weight_at(V, INF) == 0


class TestGlobalTotal:
    def test_examples(self):
        assert global_weight_total(3, 4, 3, 5) == 32
        assert global_weight_total(6, 10, 6, 15) == 210 == 6 ** 3 - 6
        assert global_weight_total(1, 9, 4, 0) == 9

    def test_degree_audit_standalone(self):
        # the wronskian section lives in L^s tensor omega^N with
        # L = omega(pole divisor of the tuple), so on the line its zero
        # divisor has degree s*deg(L) + (2g-2)*N with g = 0
        V = perturbed_system()
        div = weight_divisor(V)
        s, N = len(V), order_sequence(V).N
        deg_poles = sum(max(0, -min(f.valuation(q) for f in V.functions))
                        for q in (Fraction(0), Fraction(1), Fraction(-1)))
        deg_poles += max(0, -min(f.valuation(INF) - 2 for f in V.functions))
        deg_L = -2 + deg_poles
        assert div.degree == global_weight_total(s, deg_L, 0, N)


class TestInvariance:
    def test_basis_change(self):
        rng = random.Random(101)
        V = perturbed_system()
        eps = tuple(order_sequence(V))
        w = wronskian(V)
        for _ in range(5):
            while True:
                mat = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                       for _ in range(3)]
                det = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                       - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                       + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
                if det:
                    break
            fns = [sum((mat[i][j] * V.functions[j] for j in range(3)),
                       RationalFunction(Polynomial(QQ, [])))
                   for i in range(3)]
            W = LinearSystem(fns)
            assert tuple(order_sequence(W)) == eps
            ratio = wronskian(W) / w
            assert ratio.num.degree == 0 and ratio.den.degree == 0
            assert differential_weight_at(W, Fraction(1)) == 0

    def test_common_scaling_invariance_of_weights(self):
        t = Polynomial.variable(QQ)
        V = perturbed_system()
        sigma = (1 - t ** 2) / t ** 6
        W = LinearSystem([f * sigma for f in V.functions])
        for q in (Fraction(1), Fraction(2), INF):
            assert differential_weight_at(V, q) == differential_weight_at(W, q)

    def test_mobius_substitution_permutes_weights(self):
        # t -> t + 1 moves the weight-one points from roots of t^2 - 6 to
        # roots of (t+1)^2 - 6
        t = Polynomial.variable(QQ)
        V = perturbed_system()
        shift = (t + 1) / Polynomial(QQ, [1])
        W = LinearSystem([f.num(shift) / f.den(shift) for f in V.functions])
        div = weight_divisor(W, excluded_points=[Fraction(-1)])
        entries = div.to_json()
        assert entries == [{"factor": "t^2 + 2*t - 5", "multiplicity": 1,
                            "degree": 2}]

    def test_mobius_inversion_swaps_zero_and_infinity(self):
        V = quartic_cusp_system(2)
        t = Polynomial.variable(GF(2))
        inv = RationalFunction(Polynomial(GF(2), [1]), t)
        W = LinearSystem([f.num(inv) / f.den(inv) for f in V.functions])
        assert tuple(order_sequence(W)) == (0, 1, 4)
        assert differential_weight_at(W, GF(2)(0)) == differential_weight_at(V, INF)
        assert differential_weight_at(W, INF) == differential_weight_at(V, GF(2)(0))
        assert differential_weight_at(W, GF(2)(1)) == differential_weight_at(V, GF(2)(1))


def reference_weight_divisor(V, excluded_points=()):
    """The divisor entries as weight_divisor found them on the reduced
    wronskian W: places from coprime_refinement of W's numerator and
    denominator and of every f_j's denominator, the place of each excluded
    finite point dropped, the weight ord W - s * (least pole order of the
    f_j) at each place and the differential weight at INF."""
    w, s = wronskian(V), len(V)
    excluded = [q for q in excluded_points if q is not INF]
    entries = []
    for place in coprime_refinement([w.num, w.den] + [f.den for f in V.functions]):
        if place.degree == 1 and any(place.root_multiplicity(q) for q in excluded):
            continue
        pole = min(0, min(f.multiplicity_of_factor(place) for f in V.functions))
        weight = w.multiplicity_of_factor(place) - s * pole
        assert weight >= 0
        if weight:
            entries.append((place, weight))
    if INF not in excluded_points:
        pole = min(0, min(f.valuation(INF) for f in V.functions) - 2)
        weight = w.valuation(INF) - s * (pole + 2) - 2 * order_sequence(V).N
        assert weight >= 0
        if weight:
            entries.append((INF, weight))
    return entries


def assert_divisor_matches_the_reference(V, excluded_points):
    divisor = weight_divisor(V, excluded_points=excluded_points)
    assert list(divisor) == reference_weight_divisor(V, excluded_points)
    w = wronskian(V)
    assert divisor.excluded_orders == tuple(w.valuation(q) for q in excluded_points)
    return divisor


def divisor_curves(field):
    """Monomial, cusp and two-branch curves over the field, with branches
    at finite points and at INF."""
    def mono(gens, q):
        return MonomialSingularity(field, NumericalSemigroup.from_generators(gens), q)

    def cusp(q):
        return UnibranchSingularity(field, [[1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1]], 6, q)

    tacnode = validate_ring(field, [([1, 0], [1, 0]), ([0, 1], [0, 1])], (2, 2))
    return [RationalCurve(field, sings) for sings in (
        [mono([3, 4], field(0))],
        [mono([3, 5], field(0)), mono([2, 3], field(1))],
        [mono([4, 5, 6], field(1))],
        [cusp(field(1))],
        [cusp(field(0)), mono([2, 5], field(1))],
        [mono([3, 4], field(0)), mono([3, 5], INF)],
        [cusp(INF)],
        [TwoBranchSingularity(tacnode, (field(0), INF))])]


class TestWeightDivisorStrip:
    """weight_divisor strips the excluded points and the poles from the
    unreduced det and D; the reference refines the reduced wronskian."""

    @pytest.mark.parametrize("p", [0, 2, 3, 7])
    def test_curves_match_the_reduced_wronskian_route(self, p):
        field = GF(p) if p else QQ
        nonclassical = 0
        for X in divisor_curves(field):
            V = dualizing_basis(X)._system
            excluded = X.singular_locations()
            divisor = assert_divisor_matches_the_reference(V, excluded)
            assert divisor.degree == weight_report(X).smooth_divisor.degree
            nonclassical += tuple(order_sequence(V)) != tuple(range(len(V)))
        assert nonclassical > 0 or p in (0, 7)

    def test_ring_corpus_curves(self, ring_corpus):
        for ring in ring_corpus:
            X = RationalCurve(QQ, [TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])
            assert_divisor_matches_the_reference(dualizing_basis(X)._system,
                                                 X.singular_locations())

    def test_perturbed_system_with_and_without_excluded_points(self):
        # poles at 1 and -1; det vanishes at 0, which is not a pole, and
        # at the roots of t^2 - 6; 2 is neither
        V = perturbed_system()
        for excluded in ([], [Fraction(0)], [Fraction(1)], [Fraction(-1), Fraction(0)],
                         [Fraction(2)], [INF], [Fraction(0), INF, Fraction(0)]):
            divisor = assert_divisor_matches_the_reference(V, excluded)
            if Fraction(0) not in excluded:
                assert (Polynomial(QQ, [0, 1]), 4) in list(divisor)

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_seeded_systems_with_poles_off_the_field(self, p):
        # shared denominators with and without roots in the field, each
        # excluded point a root of D, a zero of det, or neither
        field = GF(p) if p else QQ
        t = Polynomial.variable(field)
        D = (t - 1) ** 2 * (t ** 2 + 2)
        systems = seeded_systems(field, 800 + p, 8) + [
            LinearSystem([one(field) / D, t ** 3 / D, (t ** 5 - t ** 2) / D,
                          (t ** 4 + 2 * t) / one(field)])]
        rng = random.Random(850 + p)
        for V in systems:
            points = (V.denominator.rational_roots() + wronskian(V).num.rational_roots()
                      + [field(rng.randint(0, 9))])
            assert_divisor_matches_the_reference(V, [])
            assert_divisor_matches_the_reference(V, rng.sample(points, min(2, len(points))))
            # the weight without per-function pole terms, as D is their lcm
            for q in points + [INF]:
                assert differential_weight_at(V, q) == pole_term_weight_at(V, q)
