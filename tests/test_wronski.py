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
    _bareiss,
    fraction_free_rank_det,
    scalar_echelon,
)
from weierforge.wronski import (
    DependentFunctionsError,
    LinearSystem,
    differential_weight_at,
    global_weight_total,
    hasse_wronskian,
    order_sequence,
    smooth_weight,
    vq_orders,
    weight_divisor,
    wronskian,
)
from conftest import derivative, random_polynomial


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
            assert hasse_wronskian(V, eps) == w
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
                assert w == reference_wronskian(V, other)
                differs += w != wronskian(V)
        assert differs > 0

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_dependent_sequences_give_the_zero_function(self, p):
        field = GF(p) if p else QQ
        for V in seeded_systems(field, 600 + p, 4):
            eps = (0,) * len(V)
            assert reference_wronskian(V, eps).is_zero()
            assert hasse_wronskian(V, eps).is_zero()
        # (1, t^2) / (t + 1) over GF(2) has orders (0, 2), and D^(1) t^2 = 0
        t = Polynomial.variable(GF(2))
        V = LinearSystem([1 / (t + 1), t ** 2 / (t + 1)])
        assert tuple(order_sequence(V)) == (0, 2)
        assert reference_wronskian(V, (0, 1)).is_zero()
        assert wronskian(V, (0, 1)).is_zero()
        with pytest.raises(ValueError):
            hasse_wronskian(V, (0, -1))

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
    GF(p) and ranked by scalar_echelon, with Bareiss on the polynomial rows
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
        if any(len(scalar_echelon([[value(f, x) for f in r] for r in rows])[0]) == len(rows)
               for x in points):
            independent = True
        else:
            independent = _bareiss([list(r) for r in rows])[0] == len(rows)
            decided += independent
        if independent:
            chosen.append(eps)
            accepted.append(rows[-1])
    rank, det, sign = _bareiss([list(r) for r in accepted])
    assert rank == s
    return tuple(chosen), RationalFunction(det * sign, V.denominator ** s), decided


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
