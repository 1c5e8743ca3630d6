import math
import random
import time
from itertools import combinations

import pytest

from weierforge import exact, padic
from weierforge.exact import GF, triangular_insert
from weierforge.numsg import NumericalSemigroup
from weierforge.padic import (
    OrderSequence,
    _p_adically_below,
    binom_mod_p,
    classicality_product_test,
    monomial_order_sequence,
    satisfies_p_adic_criterion,
    uses_all_weight,
)
from conftest import field_echelon


class TestBinomModP:
    def test_examples(self):
        assert binom_mod_p(4, 4, 2) == 1
        assert binom_mod_p(3, 1, 2) == 1
        assert binom_mod_p(6, 2, 5) == 0

    def test_k_above_n(self):
        assert binom_mod_p(3, 5, 7) == 0

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            binom_mod_p(4, 2, 4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_factorials(self, p):
        for n in range(65):
            for k in range(n + 1):
                assert binom_mod_p(n, k, p) == math.comb(n, k) % p


class TestCriterion:
    def test_examples(self):
        assert satisfies_p_adic_criterion([0, 1, 2, 5, 6, 10], 5)
        assert not satisfies_p_adic_criterion([0, 3], 2)
        assert satisfies_p_adic_criterion([0], 13)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            satisfies_p_adic_criterion([0, 1, 1], 2)

    def test_negative_term_rejected(self):
        for seq in ([-1, 0], [0, 1, -2]):
            with pytest.raises(ValueError, match="nonnegative"):
                satisfies_p_adic_criterion(seq, 2)

    def test_iterator_is_read_once(self):
        assert satisfies_p_adic_criterion(iter([0, 1, 4, 5]), 2)
        assert not satisfies_p_adic_criterion((e for e in [0, 3]), 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_the_scan_below_each_term(self, p):
        # every set of at most five values below 10 holding 0, then seeded
        # sets of values below 60
        rng = random.Random(80 + p)
        cases = [(0,) + c for k in range(5) for c in combinations(range(1, 10), k)]
        cases += [tuple(rng.sample(range(60), rng.randint(1, 8))) for _ in range(200)]
        outcomes = []
        for seq in cases:
            outcomes.append(satisfies_p_adic_criterion(seq, p))
            assert outcomes[-1] == _scan_criterion(seq, p), seq
        assert set(outcomes) == {True, False}

    def test_large_terms_take_time_in_their_digits(self):
        start = time.perf_counter()
        assert satisfies_p_adic_criterion([0, 2 ** 40], 2)
        assert satisfies_p_adic_criterion([0, 3 ** 30, 2 * 3 ** 30], 3)
        assert not satisfies_p_adic_criterion([0, 2 ** 40 + 1], 2)
        # 2^41 values lie below 2^41 - 1: far more than there are terms
        assert not satisfies_p_adic_criterion([0, 1, 2 ** 41 - 1], 2)
        assert time.perf_counter() - start < 1.0


def _scan_criterion(seq, p):
    """The criterion by testing every mu up to each term."""
    terms = set(seq)
    return all(mu in terms for eps in terms for mu in range(eps + 1)
               if binom_mod_p(eps, mu, p) != 0)


def brute_force_minimal_sequence(exponents, p):
    """Smallest lexicographic strictly increasing sequence with a nonzero
    binomial determinant, by exhaustive search."""
    field = GF(p)
    s = len(exponents)
    best = None
    for cand in combinations(range(exponents[-1] + 1), s):
        if cand[0] != 0:
            continue
        rows = [[field(binom_mod_p(a, e, p)) for a in exponents] for e in cand]
        if len(field_echelon(rows)[0]) == s:
            best = cand
            break
    return best


def echelon_rerun_order_sequence(exponents, p):
    """monomial_order_sequence's search before it inserted each row once:
    the reduced echelon form re-run on FpElement rows, the reduced rows so
    far plus the candidate, for every eps."""
    field = GF(p)
    exponents = [a - exponents[0] for a in exponents]
    chosen, echelon_rows, eps = [], [], -1
    while len(chosen) < len(exponents):
        eps += 1
        row = [field(binom_mod_p(a, eps, p)) for a in exponents]
        _, reduced = field_echelon(echelon_rows + [row])
        if len(reduced) > len(echelon_rows):
            chosen.append(eps)
            echelon_rows = reduced
    return tuple(chosen)


def scan_order_sequence(exponents, p):
    """monomial_order_sequence's search before it tried only the eps
    p-adically below an exponent: every eps from 0 up, each row inserted
    once into one triangular form."""
    exponents = [a - exponents[0] for a in exponents]
    chosen, pivots, rows, eps = [], [], [], -1
    while len(chosen) < len(exponents):
        eps += 1
        assert eps <= exponents[-1]
        if triangular_insert(pivots, rows, [binom_mod_p(a, eps, p) for a in exponents], p) is not None:
            chosen.append(eps)
    return tuple(chosen)


class TestPAdicallyBelow:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_the_binomial_filter(self, p):
        for a in range(200):
            assert list(_p_adically_below(a, p)) == [
                mu for mu in range(a + 1) if binom_mod_p(a, mu, p) != 0]

    def test_large_values_come_in_their_digits(self):
        assert list(_p_adically_below(2 ** 40, 2)) == [0, 2 ** 40]
        assert list(_p_adically_below(2 * 3 ** 30 + 1, 3)) == [
            0, 1, 3 ** 30, 3 ** 30 + 1, 2 * 3 ** 30, 2 * 3 ** 30 + 1]


class TestMonomialOrderSequence:
    def test_example_char2(self):
        assert monomial_order_sequence((0, 3, 4), 2) == (0, 1, 4)

    def test_consecutive(self):
        for p in (0, 2, 5):
            assert monomial_order_sequence(range(5), p) == (0, 1, 2, 3, 4)

    def test_criterion_closed_set_is_fixed(self):
        # digit-closed exponents are their own orders
        exps = (0, 1, 3, 6)
        assert satisfies_p_adic_criterion(exps, 3)
        assert monomial_order_sequence(exps, 3) == exps

    def test_char0(self):
        assert monomial_order_sequence((0, 5, 9), 0) == (0, 1, 2)

    @pytest.mark.parametrize("p", [1, -1, 4])
    def test_nonprime_rejected_before_any_digit(self, p, monkeypatch):
        # the digits of a in base 1 or -1 never run out, so p is refused
        # before the search enumerates any of them
        def enumerated(a, p):
            raise AssertionError("digits taken before p was checked")

        monkeypatch.setattr(padic, "_p_adically_below", enumerated)
        with pytest.raises(ValueError, match="not prime"):
            monomial_order_sequence((0, 1), p)

    def test_shift_invariance(self):
        assert (monomial_order_sequence((2, 5, 6), 2)
                == monomial_order_sequence((0, 3, 4), 2))

    def test_primality_is_tested_once_per_sequence(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return real_is_prime(n)

        real_is_prime = exact._is_prime
        for module in (exact, padic):    # every module that may bind the test
            if hasattr(module, "_is_prime"):
                monkeypatch.setattr(module, "_is_prime", counting_is_prime)
        monkeypatch.setattr(exact, "_gf_cache", {})
        for p in (2, 199999):
            calls.clear()
            monomial_order_sequence([0, 4, 5, 8, 9, 10, 12], p)
            assert calls == [p]
            calls.clear()
            satisfies_p_adic_criterion((0, 1, 2, 4), p)
            assert calls == []

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_brute_force(self, p):
        rng = random.Random(40 + p)
        for _ in range(25):
            s = rng.randint(2, 4)
            exponents = tuple(sorted(rng.sample(range(12), s)))
            shifted = tuple(a - exponents[0] for a in exponents)
            got = monomial_order_sequence(exponents, p)
            assert tuple(got) == brute_force_minimal_sequence(shifted, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_echelon_rerun_search(self, p):
        # the gallery's semigroups, then seeded exponents
        cases = [NumericalSemigroup.from_generators(g).small_elements()
                 for g in ([3, 4], [3, 5], [4, 5], [4, 6, 11])]
        rng = random.Random(70 + p)
        cases += [sorted(rng.sample(range(3, 30), rng.randint(2, 8))) for _ in range(30)]
        nonclassical = 0
        for exponents in cases:
            got = tuple(monomial_order_sequence(exponents, p))
            assert got == echelon_rerun_order_sequence(exponents, p)
            nonclassical += got != tuple(range(len(exponents)))
        assert nonclassical > 5

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_scan_over_every_eps(self, p):
        rng = random.Random(90 + p)
        nonclassical = 0
        for _ in range(150):
            exponents = sorted(rng.sample(range(60), rng.randint(1, 6)))
            got = tuple(monomial_order_sequence(exponents, p))
            assert got == scan_order_sequence(exponents, p), exponents
            nonclassical += got != tuple(range(len(exponents)))
        assert nonclassical > 20

    def test_large_exponents_take_time_in_their_digits(self):
        start = time.perf_counter()
        assert monomial_order_sequence((0, 2 ** 40), 2) == (0, 2 ** 40)
        assert monomial_order_sequence((5, 5 + 2 ** 40, 5 + 2 ** 41), 2) == (0, 2 ** 40, 2 ** 41)
        assert monomial_order_sequence((0, 3 ** 30, 2 * 3 ** 30), 3) == (0, 3 ** 30, 2 * 3 ** 30)
        assert monomial_order_sequence((0, 1, 7 ** 20 + 1), 7) == (0, 1, 7 ** 20)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_output_satisfies_criterion(self, p):
        rng = random.Random(50 + p)
        for _ in range(40):
            s = rng.randint(2, 5)
            exponents = tuple(sorted(rng.sample(range(16), s)))
            got = monomial_order_sequence(exponents, p)
            assert satisfies_p_adic_criterion(tuple(got), p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reversed_complement_invariance(self, p):
        rng = random.Random(60 + p)
        for _ in range(40):
            s = rng.randint(2, 5)
            exponents = sorted(rng.sample(range(16), s))
            shifted = [a - exponents[0] for a in exponents]
            mirrored = tuple(shifted[-1] - a for a in reversed(shifted))
            assert (monomial_order_sequence(tuple(shifted), p)
                    == monomial_order_sequence(mirrored, p))


class TestOrderSequenceType:
    def test_char0_must_be_consecutive(self):
        with pytest.raises(ValueError):
            OrderSequence((0, 2), 0)

    def test_charp_must_be_digit_closed(self):
        with pytest.raises(ValueError):
            OrderSequence((0, 3), 2)
        seq = OrderSequence((0, 1, 4), 2)
        assert seq.N == 5


class TestClassicality:
    def test_examples(self):
        assert classicality_product_test([1, 2, 5], 5)
        assert not classicality_product_test([1, 2, 5], 2)
        assert classicality_product_test(list(range(1, 8)), 3)

    def test_product_integrality_randomized(self):
        rng = random.Random(71)
        for _ in range(50):
            s = rng.randint(2, 6)
            gaps = sorted(rng.sample(range(1, 20), s))
            # raises inside if the product were not integral
            classicality_product_test(gaps, 7)


class TestUsesAllWeight:
    def test_paper_trio(self):
        assert uses_all_weight(NumericalSemigroup.from_generators([4, 6, 11]).gaps, 2)
        assert uses_all_weight(NumericalSemigroup.from_generators([3, 5]).gaps, 3)
        assert uses_all_weight(NumericalSemigroup.from_generators([4, 5]).gaps, 5)

    def test_negative_case(self):
        assert not uses_all_weight([1, 2, 5], 5)
