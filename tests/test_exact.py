import bisect
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from weierforge import exact
from weierforge.cli import main
from weierforge.exact import (
    GF,
    INF,
    MAX_DECIMAL_EXPONENT,
    QQ,
    FpElement,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    TruncationError,
    _bareiss_mod_p,
    _cleared,
    _from_ints,
    _is_prime,
    _mul_mod_p,
    _mul_trunc,
    _sub_mod_p,
    coprime_refinement,
    echelon_insert,
    field_rows,
    fraction_free_rank_det,
    int_echelon,
    scalar_echelon,
    scalar_ints,
    scalar_nullspace,
    series_det_order,
    span_reduce,
    triangular_insert,
)
from conftest import derivative, random_polynomial, random_rational_function, valuation_at_zero


def t_over(field):
    return Polynomial.variable(field)


class TestFields:
    def test_fp_arithmetic(self):
        F7 = GF(7)
        a, b = F7(3), F7(5)
        assert a + b == 1
        assert a * b == 1
        assert a - b == 5
        assert a / b == 3 * 3 % 7
        assert -a == 4
        assert a ** -1 == 5

    def test_fp_from_fraction(self):
        assert GF(5)(Fraction(1, 2)) == 3

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_qq_parse(self):
        assert QQ("-2/3") == Fraction(-2, 3)

    def test_decimal_exponent_bound(self):
        assert QQ("1e-8000") == Fraction(1, 10 ** 8000)
        assert QQ("-2.5E+%d" % MAX_DECIMAL_EXPONENT) == -25 * 10 ** (MAX_DECIMAL_EXPONENT - 1)
        F7 = GF(7)
        assert F7("3e-0%d" % MAX_DECIMAL_EXPONENT) == F7(3) / F7(10) ** MAX_DECIMAL_EXPONENT
        for text in ("1e-%d" % (MAX_DECIMAL_EXPONENT + 1), "1E+999999999",
                     "1e-" + "9" * 5000, "7.5e-0_999_999"):
            for field in (QQ, GF(5)):
                with pytest.raises(ValueError, match="exponent"):
                    field(text)


class TestHasseDerivative:
    def test_monomial_rule(self):
        t = t_over(QQ)
        assert (t ** 5).hasse(2) == 10 * t ** 3

    def test_char2_example(self):
        t = t_over(GF(2))
        assert (t ** 3 + t ** 4).hasse(1) == t ** 2

    def test_identity_case(self):
        f = random_rational_function(random.Random(1), QQ)
        assert f.hasse(0) == f

    def test_negative_order_rejected(self):
        t = t_over(QQ)
        for f in (t, RationalFunction(t)):
            with pytest.raises(ValueError):
                f.hasse(-1)

    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_product_rule(self, characteristic):
        field = QQ if characteristic == 0 else GF(characteristic)
        rng = random.Random(100 + characteristic)
        for _ in range(30):
            f = random_rational_function(rng, field)
            g = random_rational_function(rng, field)
            if f.is_zero() or g.is_zero():
                continue
            i = rng.randint(0, 6)
            fl = f.hasse_list(i)
            gl = g.hasse_list(i)
            lhs = (f * g).hasse(i)
            rhs = sum((fl[a] * gl[i - a] for a in range(i + 1)),
                      RationalFunction(Polynomial(field, [])))
            assert lhs == rhs

    def test_factorial_identity_char0(self):
        rng = random.Random(7)
        for _ in range(25):
            f = random_rational_function(rng, QQ)
            i = rng.randint(1, 5)
            ordinary = f
            for _k in range(i):
                ordinary = derivative(ordinary)
            assert f.hasse(i) * math.factorial(i) == ordinary


class TestValuation:
    def test_finite_zero(self):
        t = t_over(QQ)
        f = (t ** 3) * (1 - t) / Polynomial(QQ, [1])
        assert f.valuation(Fraction(0)) == 3

    def test_infinity(self):
        t = t_over(QQ)
        assert (t ** 4 / (1 - t ** 2)).valuation(INF) == -2

    def test_simple_root(self):
        t = t_over(QQ)
        assert ((t - 1) / Polynomial(QQ, [1])).valuation(Fraction(1)) == 1

    def test_zero_function(self):
        z = RationalFunction(Polynomial(QQ, []))
        assert z.valuation(Fraction(2)) == math.inf

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_rational_function(rng, QQ)
            g = random_rational_function(rng, QQ)
            if f.is_zero() or g.is_zero():
                continue
            q = rng.choice([Fraction(0), Fraction(1), Fraction(-2), INF])
            assert (f * g).valuation(q) == f.valuation(q) + g.valuation(q)

    def test_degree_sum_zero(self):
        # the orders over all places (finite, grouped by coprime factors,
        # plus infinity) of a nonzero rational function sum to zero
        rng = random.Random(13)
        for _ in range(25):
            f = random_rational_function(rng, QQ)
            if f.is_zero():
                continue
            places = coprime_refinement([f.num, f.den])
            total = sum(f.multiplicity_of_factor(p) * p.degree for p in places)
            assert total + f.valuation(INF) == 0


class TestPolynomials:
    def test_divmod_and_gcd(self):
        t = t_over(QQ)
        f = (t - 1) ** 2 * (t + 2)
        g = (t - 1) * (t + 3)
        assert f.gcd(g) == (t - 1).monic()
        q, r = divmod(f, g)
        assert q * g + r == f

    @pytest.mark.parametrize("lift", [Polynomial, RationalFunction], ids=["poly", "rational"])
    @pytest.mark.parametrize("field, scalar", [(GF(3), Fraction(1, 3)), (GF(3), FpElement(1, 5)),
                                               (QQ, FpElement(1, 5))], ids=repr)
    def test_scalar_outside_the_field_compares_unequal(self, lift, field, scalar):
        # as FpElement does: == and != answer, they never raise
        f = Polynomial(field, [1])
        f = f if lift is Polynomial else RationalFunction(f)
        assert not f == scalar and f != scalar
        assert not scalar == f and scalar != f
        if field is not QQ:
            assert not field.one == scalar

    def test_shift_and_reverse(self):
        t = t_over(QQ)
        f = t ** 2 + 1
        assert f.shift(1) == t ** 2 + 2 * t + 2
        assert f.reversed_coeffs() == 1 + t ** 2
        assert (t ** 2).reversed_coeffs(3) == t

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_root_multiplicity_matches_the_shifted_valuation(self, p):
        field = GF(p) if p else QQ
        rng = random.Random(700 + p)
        t = t_over(field)
        for _ in range(30):
            a = field(rng.randrange(p) if p else rng.randint(-3, 3))
            m = rng.randint(max(p, 1), 3 * max(p, 1))
            f = (t - a) ** m * random_polynomial(rng, field, 5, zero_ok=False)
            assert f.root_multiplicity(a) == valuation_at_zero(f.shift(a)) >= m
            for b in range(p or 4):
                b = field(b)
                assert f.root_multiplicity(b) == valuation_at_zero(f.shift(b))
        assert Polynomial(field, []).root_multiplicity(field(1)) == math.inf

    def test_squarefree_decomposition(self):
        t = t_over(QQ)
        f = (t ** 2 - 6) * (t - 1) ** 3
        dec = f.squarefree_decomposition()
        assert sorted((str(p), m) for p, m in dec) == [
            ("t - 1", 3), ("t^2 - 6", 1)]

    def test_squarefree_char_p_power(self):
        t = t_over(GF(2))
        f = (t + 1) ** 4 * t
        dec = dict((str(p), m) for p, m in f.squarefree_decomposition())
        assert dec == {"t + 1": 4, "t": 1}

    def test_rational_roots(self):
        t = t_over(QQ)
        f = (t - Fraction(1, 2)) * (t + 3) * (t ** 2 + 1)
        roots = set(f.rational_roots())
        assert roots == {Fraction(1, 2), Fraction(-3)}

    def test_coprime_refinement_multiplicity(self):
        t = t_over(QQ)
        a = (t - 1) * (t ** 2 - 6)
        b = (t - 1) ** 2 * (t + 5)
        basis = coprime_refinement([a, b])
        assert all(basis[i].gcd(basis[j]).degree == 0
                   for i in range(len(basis)) for j in range(i))
        for f in (a, b):
            rebuilt = Polynomial(QQ, [f.leading_coefficient])
            for p in basis:
                rebuilt = rebuilt * p ** f.multiplicity_of_factor(p)
            assert rebuilt == f


def _nonresidue_quadratic(field):
    """A monic quadratic without roots in GF(p)."""
    p = field.characteristic
    if p == 2:
        return Polynomial(field, [1, 1, 1])
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return Polynomial(field, [-n, 0, 1])


def _random_root(rng, field):
    p = field.characteristic
    if p:
        return field(rng.randrange(p))
    if rng.random() < 0.3:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _planted(rng, field, cofactor):
    """(f, roots): a random scalar times cofactor times planted linear
    factors, some repeated and sometimes the root 0."""
    t = t_over(field)
    roots = {_random_root(rng, field) for _ in range(rng.randint(0, 4))}
    if rng.random() < 0.3:
        roots.add(field(0))
    f = cofactor * rng.choice([c for c in map(field, (1, 2, 3, 7)) if c])
    for r in roots:
        f = f * (t - r) ** rng.randint(1, 3)
    return f, roots


_ROOT_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(100003)]


class TestRootFinding:
    @pytest.mark.parametrize("field", _ROOT_FIELDS, ids=repr)
    def test_planted_roots_come_back_once_in_order(self, field):
        # the cofactor has no roots in the field, so the planted ones are all
        rng = random.Random(900 + field.characteristic)
        t = t_over(field)
        for _ in range(25):
            cofactor = (t ** 2 + rng.randint(1, 10 ** 6) if field is QQ
                        else _nonresidue_quadratic(field))
            f, roots = _planted(rng, field, cofactor)
            key = (lambda r: r) if field is QQ else (lambda r: r.value)
            assert f.rational_roots() == sorted(roots, key=key)

    @pytest.mark.parametrize("field", _ROOT_FIELDS, ids=repr)
    def test_against_sympy(self, field):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        p = field.characteristic
        rng = random.Random(950 + p)
        for _ in range(25):
            f, _roots = _planted(rng, field, random_polynomial(rng, field, 4, zero_ok=False))
            if p:
                poly = sympy.Poly([c.value for c in reversed(f.coeffs)], x, modulus=p)
                expected = sorted(int(r) % p for r in poly.ground_roots())
                assert [r.value for r in f.rational_roots()] == expected
            else:
                poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                   for c in reversed(f.coeffs)], x, domain="QQ")
                expected = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
                assert f.rational_roots() == expected

    def test_roots_mod_p_that_do_not_lift_are_dropped(self):
        # t^2 - 7 has roots mod 3, the prime the lifting uses; neither lifts
        t = t_over(QQ)
        assert (t ** 2 - 7).rational_roots() == []
        assert ((t ** 2 - 7) * (3 * t + 1)).rational_roots() == [Fraction(-1, 3)]

    def test_repeated_roots_over_qq(self, monkeypatch):
        # the integer gcd with f' runs only when f mod the first prime not
        # dividing the leading coefficient is not squarefree
        gcd, calls = exact._gcd_mod_p, []
        monkeypatch.setattr(exact, "_gcd_mod_p",
                            lambda a, b, p: calls.append(p) or gcd(a, b, p))
        t = t_over(QQ)
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            ((t - 1) * (t + 1) * (t ** 2 + 1), [-1, 1], 0),   # squarefree mod 3
            ((t - 1) * (t - 4), [1, 4], 1),                   # (t - 1)^2 mod 3
            ((t - 1) ** 3 * (t + half) ** 2 * t ** 2 * (t ** 2 + 5), [-half, 0, 1], 1),
            (3 * (t - 2) ** 2 * (t - third) ** 4, [third, 2], 1),      # lifted mod 5
            (-(t - 7) ** 5 * (15 * t + 2) * (t - 2) ** 6, [Fraction(-2, 15), 2, 7], 1),
            (Fraction(2, 7) * t ** 6 * (t ** 2 - 2) ** 3, [0], 1),
        ]
        for f, roots, integer_gcds in cases:
            calls.clear()
            assert f.rational_roots() == roots
            assert calls.count(0) == integer_gcds

    def test_constants_have_no_roots(self):
        for field in _ROOT_FIELDS:
            assert Polynomial(field, [-1]).rational_roots() == []
        with pytest.raises(ValueError):
            Polynomial(QQ, []).rational_roots()

    def test_large_prime(self):
        p = 2 ** 61 - 1
        field = GF(p)
        t = t_over(field)
        roots = [field(r) for r in (0, 5, 2 ** 40 + 3, p - 1)]
        f = _nonresidue_quadratic(field)
        for r in roots:
            f = f * (t - r)
        assert f.rational_roots() == roots


def _curve_total(tmp_path, capsys, spec):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code = main(["curve", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    return code, out["total"], out["expected"], elapsed


class TestRootFindingFinishes:
    """Inputs on which scanning residues or divisors took seconds or did not finish."""

    def test_large_characteristic(self, tmp_path, capsys):
        spec = {"characteristic": 1000003, "singularities": [
            {"kind": "monomial", "location": "123457", "generators": [3, 4]}]}
        code, total, expected, elapsed = _curve_total(tmp_path, capsys, spec)
        assert code == 0 and total == expected == 24
        assert elapsed < 2.0

    def test_large_rational_location(self, tmp_path, capsys):
        spec = {"characteristic": 0, "singularities": [
            {"kind": "monomial", "location": "0", "generators": [3, 4]},
            {"kind": "monomial", "location": "982451653/7919", "generators": [3, 4]}]}
        code, total, expected, elapsed = _curve_total(tmp_path, capsys, spec)
        assert code == 0 and total == expected == 6 ** 3 - 6
        assert elapsed < 20.0


class TestPrimality:
    def test_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]

    @pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
    def test_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2 ** 31 - 1, 2 ** 61 - 1])
    def test_mersenne_primes_accepted_fast(self, n):
        start = time.perf_counter()
        assert _is_prime(n)
        assert time.perf_counter() - start < 0.5

    def test_beyond_the_proven_range_raises(self):
        with pytest.raises(ValueError, match="characteristic"):
            GF(10 ** 25 + 13)


class TestTruncatedSeries:
    def test_read_past_truncation_raises(self):
        a = TruncatedSeries(QQ, 0, [1], 3)
        with pytest.raises(TruncationError):
            a.coefficient(3)


def _laplace_det_order(rows, p):
    """ord_x det of a small matrix of int lists, by Laplace expansion on
    Polynomial entries: the reference for series_det_order."""
    field = GF(p) if p else QQ

    def det(m):
        if not m:
            return Polynomial(field, [1])
        total = Polynomial(field, [])
        for c, entry in enumerate(m[0]):
            minor = [row[:c] + row[c + 1:] for row in m[1:]]
            term = Polynomial(field, entry) * det(minor)
            total = total + term if c % 2 == 0 else total - term
        return total

    return det(rows).root_multiplicity(0)


def _x_power(v, tail):
    """x^v (tail[0] + tail[1] x + ...) as an int list."""
    return [0] * v + list(tail)


class TestSeriesDetOrder:
    @pytest.mark.parametrize("p", [0, 2, 7])
    def test_diagonal(self, p):
        rows = [[_x_power(3, [1, 1]), [], []],
                [[], _x_power(0, [5, 0, 1]), []],
                [[], [], _x_power(4, [3, 2])]]
        assert series_det_order(rows, p, 5) == 7

    @pytest.mark.parametrize("p", [0, 3, 101])
    def test_permuted_triangular(self, p):
        # upper triangular with diagonal valuations 2, 0, 5, 1, with rows
        # and columns permuted: the order is the sum of the diagonal's,
        # though the pivots may be the units above the diagonal
        rng = random.Random(7 + p)
        vals = [2, 0, 5, 1]
        n = len(vals)
        tri = [[_x_power(vals[i], [rng.choice([1, 2])] + [rng.randint(-3, 3) for _ in range(3)])
                if j == i else
                ([rng.randint(-3, 3) for _ in range(4)] if j > i else []) for j in range(n)]
               for i in range(n)]
        for _ in range(5):
            rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
            rows = [[tri[r][c] for c in cp] for r in rp]
            assert series_det_order(rows, p, 9) == 8 == _laplace_det_order(rows, p)

    @pytest.mark.parametrize("p", [0, 5])
    def test_least_valuation_pivot_off_the_first_column(self, p):
        # the first column has no unit: the first pivot is the last column's
        rows = [[_x_power(3, [2, 1]), _x_power(2, [1, 1]), [1, 4]],
                [_x_power(4, [1]), _x_power(1, [3]), _x_power(2, [1, 1])],
                [_x_power(2, [1, 0, 1]), _x_power(3, [1]), _x_power(1, [2])]]
        order = _laplace_det_order(rows, p)
        assert order >= 2
        assert series_det_order(rows, p, order + 1) == order
        assert series_det_order(rows, p, 64) == order

    @pytest.mark.parametrize("p", [0, 2, 3, 11])
    def test_matches_the_laplace_reference(self, p):
        rng = random.Random(100 + p)
        for _ in range(20):
            n = rng.randint(1, 4)
            tails = [[rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] for _ in range(n * n)]
            rows = [[_x_power(rng.randrange(4), tails[i * n + j]) for j in range(n)]
                    for i in range(n)]
            order = _laplace_det_order(rows, p)
            if order == math.inf:
                with pytest.raises(TruncationError):
                    series_det_order(rows, p, 16)
            else:
                assert series_det_order(rows, p, 16) == order

    @pytest.mark.parametrize("p", [0, 7])
    def test_precision_past_the_largest_single_pivot(self, p):
        # order 15 from three pivots of valuation 5: x^6 suffices, x^5 does not
        rows = [[_x_power(5, [1, 2]), _x_power(6, [1]), []],
                [[], _x_power(5, [3]), _x_power(7, [1])],
                [_x_power(8, [1]), [], _x_power(5, [1, 1])]]
        assert series_det_order(rows, p, 6) == 15
        with pytest.raises(TruncationError):
            series_det_order(rows, p, 5)

    def test_zero_determinant_at_every_precision(self):
        f, g = [0, 1, 2], [3, 0, 1]
        rows = [[f, g], [[2 * x for x in f], [2 * x for x in g]]]
        for K in (1, 8, 64):
            with pytest.raises(TruncationError):
                series_det_order(rows, 0, K)
        assert series_det_order([], 0, 1) == 0


class TestFractionFreeLinearAlgebra:
    def test_identity(self):
        one = Polynomial(QQ, [1])
        zero = Polynomial(QQ, [])
        rows = [[one if i == j else zero for j in range(3)] for i in range(3)]
        rank, det = fraction_free_rank_det(rows)
        assert rank == 3 and det == 1

    def test_char2_triangular(self):
        F2 = GF(2)
        t = t_over(F2)
        one = Polynomial(F2, [1])
        zero = Polynomial(F2, [])
        rows = [[one, t ** 3, t ** 4], [zero, t ** 2, zero], [zero, zero, one]]
        rank, det = fraction_free_rank_det(rows)
        assert rank == 3 and det == RationalFunction(t ** 2)

    def test_proportional_rows(self):
        F2 = GF(2)
        t = t_over(F2)
        zero = Polynomial(F2, [])
        rank, _ = fraction_free_rank_det([[zero, t ** 2, zero], [zero, t, zero]])
        assert rank == 1

    def test_ragged_rejected(self):
        one = Polynomial(QQ, [1])
        with pytest.raises(ValueError):
            fraction_free_rank_det([[one, one], [one]])

    @pytest.mark.parametrize("characteristic", [0, 5])
    def test_determinant_against_cofactor_expansion(self, characteristic):
        field = QQ if characteristic == 0 else GF(characteristic)
        rng = random.Random(300 + characteristic)

        def cofactor_det(rows):
            n = len(rows)
            if n == 1:
                return RationalFunction(rows[0][0])
            total = RationalFunction(Polynomial(field, []))
            for j in range(n):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                term = RationalFunction(rows[0][j]) * cofactor_det(minor)
                total = total + term if j % 2 == 0 else total - term
            return total

        for _ in range(20):
            n = rng.randint(2, 4)
            rows = [[random_polynomial(rng, field, 2) for _ in range(n)]
                    for _ in range(n)]
            _rank, det = fraction_free_rank_det(rows)
            assert det == cofactor_det(rows)

    def test_rank_against_function_field_elimination(self):
        rng = random.Random(17)

        def plain_rank(rows):
            work = [[RationalFunction(x) for x in r] for r in rows]
            rank = 0
            cols = len(work[0])
            r = 0
            for c in range(cols):
                piv = next((i for i in range(r, len(work))
                            if not work[i][c].is_zero()), None)
                if piv is None:
                    continue
                work[r], work[piv] = work[piv], work[r]
                for i in range(len(work)):
                    if i != r and not work[i][c].is_zero():
                        f = work[i][c] / work[r][c]
                        work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                r += 1
            return r

        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[random_polynomial(rng, QQ, 2) for _ in range(n)]
                    for _ in range(m)]
            assert fraction_free_rank_det(rows)[0] == plain_rank(rows)

    def test_rational_function_entries(self):
        t = t_over(QQ)
        one = Polynomial(QQ, [1])
        # det = (1/t)*t - 1*1 = 0, rank 1
        rows = [[1 / t, RationalFunction(one)], [RationalFunction(one), t / one]]
        rank, det = fraction_free_rank_det(rows)
        assert rank == 1
        assert det.is_zero()
        # and a nonsingular one: det = (1/t)*t - 1*2 = -1
        rows = [[1 / t, RationalFunction(one)], [2 * RationalFunction(one), t / one]]
        rank, det = fraction_free_rank_det(rows)
        assert rank == 2 and det == -1

    def test_scalar_helpers(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert len(scalar_echelon(rows)[0]) == 1
        null = scalar_nullspace(rows, 2, QQ)
        assert len(null) == 1 and null[0][0] * 1 + null[0][1] * 2 == 0
        assert scalar_echelon([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])[0] == [0, 1]


# Schoolbook polynomial arithmetic on field elements, as the kernel did it
# before it ran on ints: the reference for the integer kernel.

def _ref_mul(f, g):
    field = f.field
    if f.is_zero() or g.is_zero():
        return Polynomial(field, [])
    out = [field.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(field, out)


def _ref_divmod(f, g):
    field = f.field
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Polynomial(field, []), f
    quo = [field.zero] * (dq + 1)
    inv_lead = field.one / g.leading_coefficient
    for k in range(dq, -1, -1):
        c = rem[k + g.degree] * inv_lead
        quo[k] = c
        for j, b in enumerate(g.coeffs):
            rem[k + j] = rem[k + j] - c * b
    return Polynomial(field, quo), Polynomial(field, rem[:g.degree])


def _ref_gcd(f, g):
    a, b = f, g
    while not b.is_zero():
        a, b = b, _ref_divmod(a, b)[1]
    if a.is_zero():
        return a
    return Polynomial(a.field, [c / a.leading_coefficient for c in a.coeffs])


def _ref_bareiss(rows):
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    field = rows[0][0].field
    prev = Polynomial(field, [1])
    sign, r = 1, 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                q, rem = _ref_divmod(_ref_mul(rows[r][c], rows[i][j])
                                     - _ref_mul(rows[i][c], rows[r][j]), prev)
                assert rem.is_zero()
                rows[i][j] = q
            rows[i][c] = Polynomial(field, [])
        prev = rows[r][c]
        r += 1
    return r, prev, sign


_KERNEL_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(100003)]


def _kernel_polynomial(rng, field, max_degree=5):
    """Zero one time in eight; over QQ with non-integer coefficients, a
    common content and a leading coefficient of either sign."""
    if rng.random() < 0.125:
        return Polynomial(field, [])
    deg = rng.randint(0, max_degree)
    if field.characteristic:
        return Polynomial(field, [field(rng.randrange(field.characteristic))
                                  for _ in range(deg)] + [field(rng.randrange(1, 10 ** 6))])
    content = Fraction(rng.choice([1, 6, -35, 2 ** 70]), rng.choice([1, 4, 9]))
    coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(deg)]
    lead = rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return Polynomial(field, [content * c for c in coeffs + [lead]])


class TestIntegerKernel:
    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_mul_divmod_gcd_match_schoolbook(self, field):
        rng = random.Random(1100 + field.characteristic)
        for _ in range(80):
            f, g = _kernel_polynomial(rng, field), _kernel_polynomial(rng, field)
            h = _kernel_polynomial(rng, field, 3)
            assert f * g == _ref_mul(f, g)
            assert f.gcd(g) == _ref_gcd(f, g)
            # a planted common factor survives, made monic
            assert (f * h).gcd(g * h) == _ref_gcd(_ref_mul(f, h), _ref_mul(g, h))
            if g.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(f, g)
                continue
            assert divmod(f, g) == _ref_divmod(f, g)
            assert (f * g).exact_div(g) == f

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_truncated_product_is_the_cut_full_product(self, field):
        # the full product cut to n and padded with zeros to n, as valsg2's
        # blocks and curve's ansatz pad it, for n below, at and past the
        # product's length; series_det_order's difference of two cut products
        # strips its trailing zeros either way
        p = field.characteristic
        rng = random.Random(1150 + p)

        def ints():
            body = [rng.randrange(p) if p else rng.choice([0, 1, -1, 3, 2 ** 40, -7])
                    for _ in range(rng.randint(0, 7))]
            return [0] * rng.randint(0, 3) + body + [0] * rng.randint(0, 2)

        pairs = [([], []), ([], [1, 2]), ([5], []), ([0, 0], [0, 3])]
        pairs += [(ints(), ints()) for _ in range(80)]
        for a, b in pairs:
            full = len(a) + len(b) - 1
            for n in sorted({0, 1, max(full - 2, 0), max(full, 0), full + 3}):
                cut = _mul_mod_p(a, b, p)[:n]
                assert _mul_trunc(a, b, n, p) == cut + [0] * (n - len(cut)), (a, b, n)
                c, d = ints(), ints()
                assert _sub_mod_p(_mul_trunc(a, b, n, p), _mul_trunc(c, d, n, p), p) == \
                    _sub_mod_p(cut, _mul_mod_p(c, d, p)[:n], p)

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_bareiss_matches_schoolbook(self, field):
        rng = random.Random(1200 + field.characteristic)
        shapes = 0
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[_kernel_polynomial(rng, field, 2) for _ in range(n)] for _ in range(m)]
            if m >= 3:
                # a rank-deficient matrix: one row a combination of two others
                u, v = _kernel_polynomial(rng, field, 1), _kernel_polynomial(rng, field, 0)
                rows[2] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
            shapes += m != n
            rank, pivot, sign = _ref_bareiss(rows)
            assert fraction_free_rank_det(rows) == (rank, None if m != n else RationalFunction(
                pivot * sign if rank == n else Polynomial(field, [])))
            # the int kernel on the rows cleared to one scale each
            ints = [_cleared(r)[0] for r in rows]
            rank, pivot, sign = _ref_bareiss([[_from_ints(field, c) for c in r] for r in ints])
            int_rank, last, int_sign = _bareiss_mod_p(ints, field.characteristic)
            assert (int_rank, _from_ints(field, last), int_sign) == (rank, pivot, sign)
        assert shapes > 10

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_scalar_det_matches_the_leibniz_formula(self, field):
        # full scalar_echelon rank exactly when the Leibniz determinant is
        # nonzero: the nonsingularity test of padic and smooth_weight
        rng = random.Random(1250 + field.characteristic)
        singular = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[field(rng.randint(-3, 3)) if field is QQ
                     else field(rng.randrange(field.characteristic)) for _ in range(n)]
                    for _ in range(n)]
            if n >= 2 and rng.random() < 0.3:
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
            expected = field.zero
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[j] > perm[i] for i in range(n) for j in range(i))
                term = field.one
                for i in range(n):
                    term = term * rows[i][perm[i]]
                expected = expected + (-term if inversions % 2 else term)
            assert (len(scalar_echelon(rows)[0]) == n) == bool(expected)
            singular += not expected
        assert singular > 5

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_inexact_division_raises(self, field):
        rng = random.Random(1300 + field.characteristic)
        t = t_over(field)
        for _ in range(30):
            g = _kernel_polynomial(rng, field, 3)
            if g.degree < 1:
                continue
            f = _kernel_polynomial(rng, field, 4)
            with pytest.raises(ArithmeticError):
                (f * g + 1).exact_div(g)
        # every quotient digit divides exactly; only the remainder is left
        with pytest.raises(ArithmeticError):
            (t ** 2 + 1).exact_div(t)
        # the same on the int lists that Bareiss divides, and over ZZ a
        # quotient digit that is not an integer
        p = field.characteristic
        with pytest.raises(ArithmeticError):
            exact._exact_div_mod_p([1, 0, 1], [0, 1], p)
        with pytest.raises(ArithmeticError):
            exact._exact_div_mod_p([0, 0, 3], [0, 2], 0)
        with pytest.raises(ZeroDivisionError):
            t.exact_div(Polynomial(field, []))

    def test_exact_division_over_qq_keeps_the_scales(self):
        t = t_over(QQ)
        assert (t ** 2).exact_div(2 * t) == t / 2
        assert (Fraction(3, 4) * t ** 3 - Fraction(3, 4)).exact_div(6 * t - 6) == (
            t ** 2 + t + 1) / 8
        with pytest.raises(ArithmeticError):
            (3 * t ** 2 + 1).exact_div(2 * t)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(100003)], ids=repr)
    def test_taylor_lead_matches_the_field_element_version(self, field):
        # planted roots of multiplicity 0..4 at zero, a negative, a
        # non-integer and a large-denominator point, with contents up to 2^70
        rng = random.Random(1300 + field.characteristic)
        p = field.characteristic
        if p:
            points = [field(0), field(1), field(-1), field(rng.randrange(p))]
            scales = [field(1), field(rng.randrange(1, p))]
        else:
            points = [Fraction(0), Fraction(-3), Fraction(-7, 5), Fraction(982451653, 7919)]
            scales = [Fraction(1), Fraction(2 ** 70), Fraction(-5, 2 ** 70 + 1)]
        seen = set()
        for a in points:
            root = Polynomial(field, [-a, 1])
            for m in range(5):
                for _ in range(6):
                    h = _kernel_polynomial(rng, field, 4)
                    if h.is_zero():
                        continue
                    f = root ** m * h * rng.choice(scales)
                    lead = _ref_taylor_lead(f, a)
                    seen.add(lead[0])
                    assert f.root_multiplicity(a) == lead[0]
                    g = _kernel_polynomial(rng, field, 3)
                    if not g.is_zero():
                        r = RationalFunction(f, g)
                        lead_g = _ref_taylor_lead(g, a)
                        assert r.valuation(a) == lead[0] - lead_g[0]
        assert seen >= set(range(5))
        assert Polynomial(field, [6, -5, 1]).root_multiplicity(2) == 1


def _ref_taylor_lead(poly, a):
    """The field-element synthetic division by t - a that the int route
    replaced, repeated until the remainder is nonzero."""
    coeffs = poly.coeffs[::-1]
    m = 0
    while True:
        acc = poly.field.zero
        values = []
        for c in coeffs:
            acc = acc * a + c
            values.append(acc)
        if acc:
            return m, acc
        m += 1
        coeffs = values[:-1]


def _assert_reduced(pivots, rows):
    assert pivots == sorted(set(pivots)) and len(rows) == len(pivots)
    for pc, row in zip(pivots, rows):
        assert row[pc] == 1 and not any(row[:pc])
        assert all(not other[pc] for other in rows if other is not row)


def _assert_int_reduced(pivots, rows, p):
    """Residues with pivot entry 1 over GF(p); primitive rows with a
    positive pivot entry over ZZ; each row zero at the other pivots."""
    assert pivots == sorted(set(pivots)) and len(rows) == len(pivots)
    for pc, row in zip(pivots, rows):
        assert all(type(x) is int for x in row) and not any(row[:pc])
        if p:
            assert row[pc] == 1 and all(0 <= x < p for x in row)
        else:
            assert row[pc] > 0 and math.gcd(*row) == 1
        assert all(not other[pc] for other in rows if other is not row)


# The field-scalar reduced echelon insertion the int routine replaced, kept
# as a reference: Gauss-Jordan with the new pivot normalised to 1.
def _ref_echelon_insert(pivots, rows, vec):
    v = _ref_span_reduce(pivots, rows, vec)
    c = next((i for i, x in enumerate(v) if x), None)
    if c is None:
        return False
    inv = 1 / v[c]
    v = [x * inv for x in v]
    for i, row in enumerate(rows):
        if row[c]:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, v)]
    k = bisect.bisect(pivots, c)
    pivots.insert(k, c)
    rows.insert(k, v)
    return True


def _ref_span_reduce(pivots, echelon_rows, vec):
    v = list(vec)
    for prow, pc in zip(echelon_rows, pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, prow)]
    return v


def _echelon_matrix(rng, field, m, n):
    """m rows of width n: over QQ with non-integer entries, contents up to
    2^70 and leading entries of either sign; some rows zero, repeated or
    a combination of two earlier rows."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows.append([field.zero] * n)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            c = field(rng.choice([-3, -1, 2, 5]))
            rows.append([x + c * y for x, y in zip(a, b)])
        elif field.characteristic:
            rows.append([field(rng.randrange(field.characteristic)) if rng.random() < 0.7
                         else field.zero for _ in range(n)])
        else:
            content = Fraction(rng.choice([1, -1, 6, -35, 2 ** 70, -2 ** 70]),
                               rng.choice([1, 4, 9, 3 ** 20]))
            rows.append([content * Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                         if rng.random() < 0.7 else field.zero for _ in range(n)])
    return rows


class TestReducedEchelon:
    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_scalar_echelon(self, characteristic):
        field = QQ if characteristic == 0 else GF(characteristic)
        rng = random.Random(300 + characteristic)
        for _ in range(40):
            m, n = rng.randint(0, 5), rng.randint(1, 6)
            rows = [[field(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
            if m >= 2:
                rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])
            before = [list(r) for r in rows]
            pivots, ech = scalar_echelon(rows)
            assert rows == before
            _assert_reduced(pivots, ech)
            ints = [scalar_ints(r, characteristic)[0] for r in ech]
            assert all(not any(span_reduce(pivots, ints, scalar_ints(r, characteristic)[0],
                                           characteristic)) for r in rows)
            # the reduced echelon form of a span does not depend on the order
            # or the choice of its spanning rows
            assert scalar_echelon(rows[::-1]) == (pivots, ech)
            assert scalar_echelon(ech) == (pivots, ech)

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_echelon_insert(self, characteristic):
        p = characteristic
        rng = random.Random(400 + characteristic)

        def entry():
            x = rng.randint(-2, 2)
            return x % p if p else x

        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 4))]
            pivots, ech = int_echelon(rows, p)
            coeffs = [rng.randint(-2, 2) for _ in rows]
            member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
            member = [x % p for x in member] if p else member
            snapshot = (list(pivots), [list(r) for r in ech])
            assert echelon_insert(pivots, ech, member, p) is False
            assert (pivots, ech) == snapshot
            vec = [entry() for _ in range(n)]
            kept = list(vec)
            new = any(span_reduce(pivots, ech, vec, p))
            assert echelon_insert(pivots, ech, vec, p) is new
            assert vec == kept
            _assert_int_reduced(pivots, ech, p)
            assert len(pivots) == len(snapshot[0]) + new
            assert all(not any(span_reduce(pivots, ech, r, p)) for r in rows + [vec])
            assert (pivots, ech) == int_echelon(rows + [vec], p)

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_int_rows_match_the_field_scalar_echelon(self, field):
        p = field.characteristic
        rng = random.Random(450 + p)
        for _ in range(60):
            m, n = rng.randint(0, 7), rng.randint(1, 7)
            rows = _echelon_matrix(rng, field, m, n)
            ref_pivots, ref_rows, pivots, ints = [], [], [], []
            for r in rows:
                cleared = scalar_ints(r, p)[0]
                assert echelon_insert(pivots, ints, cleared, p) is _ref_echelon_insert(
                    ref_pivots, ref_rows, r)
                _assert_int_reduced(pivots, ints, p)
                assert pivots == ref_pivots
                assert field_rows(pivots, ints, p) == ref_rows
            assert scalar_echelon(rows) == (ref_pivots, ref_rows)
            for probe in _echelon_matrix(rng, field, 4, n) + rows:
                assert (not any(span_reduce(pivots, ints, scalar_ints(probe, p)[0], p))) is (
                    not any(_ref_span_reduce(ref_pivots, ref_rows, probe)))

    def test_back_reduction_by_a_unit_pivot_row_keeps_rows_primitive(self):
        # clearing column 1 of (2, 1, 1) with the unit-pivot row (0, 1, -1)
        # leaves (2, 0, 2), stored as (1, 0, 1)
        assert int_echelon([[2, 1, 1], [0, 1, -1]], 0) == ([0, 1], [[1, 0, 1], [0, 1, -1]])
        rng = random.Random(460)
        for _ in range(60):
            n = rng.randint(2, 7)
            # leading entries 1 and 2: unit and scaled steps both clear columns
            rows = [[0] * k + [rng.choice([1, 2, -1])]
                    + [rng.choice([0, 1, 2, -1, -2]) for _ in range(n - k - 1)]
                    for k in (rng.randrange(n) for _ in range(rng.randint(1, n)))]
            pivots, ech = [], []
            for r in rows:
                echelon_insert(pivots, ech, r, 0)
                _assert_int_reduced(pivots, ech, 0)

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_span_reduce_decides_membership_on_a_triangular_form(self, field):
        p = field.characteristic
        rng = random.Random(465 + p)
        inside = outside = unreduced = 0
        for _ in range(40):
            n = rng.randint(1, 8)
            rows = [scalar_ints(r, p)[0] for r in _echelon_matrix(rng, field, rng.randint(0, 6), n)]
            # small entries, so that over ZZ many pivot entries are 1
            rows += [[rng.randint(-2, 2) % p if p else rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))]
            rng.shuffle(rows)
            tri_pivots, tri = [], []
            for r in rows:
                before = (list(tri_pivots), [list(t) for t in tri])
                k = triangular_insert(tri_pivots, tri, r, p)
                if k is None:
                    assert (tri_pivots, tri) == before
                    continue
                pc, row = tri_pivots[k], tri[k]
                assert tri_pivots == sorted(set(tri_pivots)) and not any(row[:pc])
                assert row[pc] == 1 if p else row[pc] > 0 and math.gcd(*row) == 1
            pivots, ech = int_echelon(rows, p)
            assert tri_pivots == pivots
            unreduced += tri != ech
            # one insertion pass in descending pivot order reduces it
            assert int_echelon(tri[::-1], p) == (pivots, ech)
            members = [[sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
                       for coeffs in ([rng.randint(-3, 3) for _ in rows] for _ in range(3))]
            probes = [scalar_ints(r, p)[0] for r in _echelon_matrix(rng, field, 4, n)]
            for probe in probes + [[x % p for x in m] if p else m for m in members]:
                member = not any(span_reduce(pivots, ech, probe, p))
                assert (not any(span_reduce(tri_pivots, tri, probe, p))) is member
                inside += member
                outside += not member
        assert inside > 40 and outside > 40 and unreduced > 5

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_unit_vector_lies_in_the_span_iff_its_pivot_row_is_a_single_entry(self, field):
        p = field.characteristic
        rng = random.Random(470 + p)
        inside = outside = 0
        for _ in range(40):
            n = rng.randint(1, 7)
            rows = _echelon_matrix(rng, field, rng.randint(0, 5), n)
            # unit vectors planted in the span, some hidden in a combination
            for j in rng.sample(range(n), rng.randint(0, n)):
                unit = [field.one if i == j else field.zero for i in range(n)]
                rows.append([a + b for a, b in zip(unit, rows[-1])] if rows else unit)
                rows.append(unit if rng.random() < 0.5 else [field(2) * x for x in unit])
            pivots, ints = int_echelon([scalar_ints(r, p)[0] for r in rows], p)
            for j in range(n):
                unit = [1 if i == j else 0 for i in range(n)]
                member = not any(span_reduce(pivots, ints, unit, p))
                k = pivots.index(j) if j in pivots else None
                assert member is (k is not None and sum(1 for x in ints[k] if x) == 1)
                inside += member
                outside += not member
        assert inside > 20 and outside > 20


# Polynomial stores c / d on ints: the canonical form, and the operations
# that work on it checked against the same operations on field elements.

def _assert_canonical(f):
    c, d = f._ints()
    p = f.field.characteristic
    assert isinstance(c, tuple) and all(type(x) is int for x in c) and type(d) is int
    assert not c or c[-1]
    if p:
        assert d == 1 and all(0 <= x < p for x in c)
    else:
        assert d > 0 and math.gcd(d, *c) == 1 and (c or d == 1)
    assert f.coeffs == tuple(FpElement(x, p) if p else Fraction(x, d) for x in c)
    assert Polynomial(f.field, f.coeffs)._ints() == (c, d)


def _ref_squarefree_decomposition(f):
    """The squarefree decomposition as Polynomial ran it on field elements
    before its int-list helper: the same steps and merge rule."""
    f = f.monic()
    out = []
    if f.degree == 0:
        return out
    p = f.field.characteristic
    d = derivative(RationalFunction(f)).num
    if d.is_zero():
        inner = Polynomial(f.field, [f.coefficient(j * p) for j in range(f.degree // p + 1)])
        return [(fac, m * p) for fac, m in _ref_squarefree_decomposition(inner)]
    g = _ref_gcd(f, d)
    sqfree = f.exact_div(g) if g.degree > 0 else f
    rest, m = g, 1
    while sqfree.degree > 0:
        nxt = _ref_gcd(sqfree, rest)
        factor = sqfree.exact_div(nxt) if nxt.degree > 0 else sqfree
        if factor.degree > 0:
            out.append((factor.monic(), m))
        sqfree = nxt
        if nxt.degree > 0:
            rest = rest.exact_div(nxt)
        m += 1
    if rest.degree > 0:
        for fac, mult in _ref_squarefree_decomposition(rest):
            merged = False
            for i, (f0, m0) in enumerate(out):
                if f0 == fac:
                    out[i] = (f0, m0 + mult)
                    merged = True
            if not merged:
                out.append((fac, mult))
    return out


class TestStoredInts:
    def test_a_negative_denominator_is_moved_into_the_numerator(self):
        # a primitive gcd with a negative lead hands _from_ints d < 0
        f = exact._from_ints(QQ, [2, -4], -2)
        assert f == Polynomial(QQ, [-1, 2])
        assert hash(f) == hash(Polynomial(QQ, [-1, 2]))
        assert f._ints() == ((-1, 2), 1)
        assert exact._from_ints(QQ, [3, 6], -9)._ints() == ((-1, -2), 3)
        _assert_canonical(f)

    def test_the_zero_polynomial_has_denominator_one(self):
        f = Polynomial(QQ, [Fraction(1, 6), Fraction(5, 4)])
        assert f._ints() == ((2, 15), 12)
        for zero in (f - f, exact._from_ints(QQ, [0, 0], 6), Polynomial(QQ, [Fraction(0, 7)]),
                     f * 0, Polynomial(QQ, [])):
            assert zero._ints() == ((), 1)
            assert zero == Polynomial(QQ, []) and hash(zero) == hash(Polynomial(QQ, []))
            assert zero.is_zero() and zero.degree == -1 and zero.coeffs == ()

    def test_residues_are_reduced(self):
        F7 = GF(7)
        assert Polynomial(F7, [-1, 15, 7, 14])._ints() == ((6, 1), 1)
        assert Polynomial(F7, [F7(3), Fraction(1, 2), "-8"])._ints() == ((3, 4, 6), 1)
        # a denominator over GF(p) is a unit, taken into the residues
        assert exact._from_ints(F7, [10, -3], 3)._ints() == ((1, 6), 1)
        assert (Polynomial(F7, [3, 5]) * Polynomial(F7, [5, 4]))._ints() == ((1, 2, 6), 1)
        assert Polynomial(F7, [3, 5]).monic()._ints() == ((2, 1), 1)

    def test_coeffs_is_a_read_only_tuple_of_field_scalars(self):
        f = Polynomial(QQ, [Fraction(1, 2), 0, 3])
        assert f.coeffs == (Fraction(1, 2), Fraction(0), Fraction(3))
        assert isinstance(f.coeffs, tuple) and f.coeffs is f.coeffs
        with pytest.raises(AttributeError):
            f.coeffs = (Fraction(1),)
        with pytest.raises(AttributeError):
            f.extra = 1
        g = Polynomial(GF(5), [7, 0, 1])
        assert g.coeffs == (FpElement(2, 5), FpElement(0, 5), FpElement(1, 5))
        assert f.coefficient(1) == 0 and f.coefficient(9) == 0 and g.leading_coefficient == 1

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_operations_keep_the_canonical_form_and_match_field_elements(self, field):
        rng = random.Random(1500 + field.characteristic)
        for _ in range(60):
            f, g = _kernel_polynomial(rng, field), _kernel_polynomial(rng, field)
            n = max(f.degree, g.degree) + 1
            ref_sum = Polynomial(field, [f.coefficient(i) + g.coefficient(i) for i in range(n)])
            ref_diff = Polynomial(field, [f.coefficient(i) - g.coefficient(i) for i in range(n)])
            assert f + g == ref_sum and f - g == ref_diff and g + f == ref_sum
            assert -f == Polynomial(field, [-c for c in f.coeffs])
            assert f.derivative() == Polynomial(field, [i * c for i, c in enumerate(f.coeffs)][1:])
            results = [f + g, f - g, -f, f * g, f.derivative(), f.hasse(2), f.shift(3),
                       f.reversed_coeffs(n), f + 1, 2 - f, f * Fraction(3, 7)]
            if not f.is_zero():
                assert f.monic() == _ref_divmod(f, Polynomial(field, [f.leading_coefficient]))[0]
                c = field(rng.randint(1, 50)) or field.one
                assert f / c == Polynomial(field, [x / c for x in f.coeffs])
                results += [f.monic(), f / c, f.gcd(g), (f * g).exact_div(f)]
                if g.degree > 0:
                    results += list(divmod(f, g))
            for h in results:
                _assert_canonical(h)
            assert (f == g) is (f.coeffs == g.coeffs)
            assert (hash(f) == hash(g)) or f != g

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_evaluation_matches_horner_on_field_elements(self, field):
        rng = random.Random(1600 + field.characteristic)
        p = field.characteristic
        t = t_over(field)
        for _ in range(40):
            f = _kernel_polynomial(rng, field, 7)
            points = [rng.randint(-9, 9), field(rng.randint(0, 10 ** 9))]
            if not p:
                points.append(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
            for x in points:
                expected = field.zero
                for c in reversed(f.coeffs):
                    expected = expected * field(x) + c
                value = f(x)
                assert value == expected and type(value) is type(field.one)
            # a non-scalar argument takes the generic Horner path
            assert f(t) == f
            assert f(t + 2) == f.shift(2)
            assert f(RationalFunction(t + 2)) == RationalFunction(f.shift(2))

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=repr)
    def test_squarefree_decomposition_matches_the_field_element_steps(self, field):
        rng = random.Random(1700 + field.characteristic)
        p = field.characteristic
        powers = [1, 2, 3] + ([p, p + 1, 2 * p] if 0 < p < 10 else [])
        for _ in range(25):
            f = Polynomial(field, [field.one * rng.randint(1, 9) or 1])
            for _ in range(rng.randint(1, 3)):
                g = _kernel_polynomial(rng, field, 2)
                if g.degree > 0:
                    f = f * g ** rng.choice(powers)
            dec = f.squarefree_decomposition()
            assert dec == _ref_squarefree_decomposition(f)
            product = Polynomial(field, [1])
            for fac, m in dec:
                _assert_canonical(fac)
                assert fac.leading_coefficient == 1
                product = product * fac ** m
            assert product == f.monic()
        # f and g^p share a factor: their multiplicities were merged
        if p == 3:
            t = t_over(field)
            assert (t * (t + 1) ** 2 * t ** 3).squarefree_decomposition() == [
                (t + 1, 2), (t, 4)]
