import random

import pytest

from weierforge.numsg import NumericalSemigroup
from conftest import random_semigroup, symmetric_semigroups


def sieve_oracle(gens, bound):
    """Reachability sieve, independent of the library implementation."""
    reach = {0}
    frontier = [0]
    while frontier:
        n = frontier.pop()
        for g in gens:
            m = n + g
            if m <= bound and m not in reach:
                reach.add(m)
                frontier.append(m)
    return sorted(set(range(1, bound + 1)) - reach)


class TestFromGenerators:
    def test_3_4(self):
        S = NumericalSemigroup.from_generators([3, 4])
        assert S.gaps == (1, 2, 5)
        assert S.conductor == 6 and S.genus == 3

    def test_cusp(self):
        S = NumericalSemigroup.from_generators([2, 3])
        assert S.gaps == (1,) and S.conductor == 2 and S.genus == 1

    def test_4_6_11(self):
        S = NumericalSemigroup.from_generators([4, 6, 11])
        assert S.gaps == (1, 2, 3, 5, 7, 9, 13)
        assert S.genus == 7

    def test_against_sieve_oracle(self):
        rng = random.Random(5)
        for _ in range(100):
            S = random_semigroup(rng)
            bound = 2 * S.conductor + 20
            assert list(S.gaps) == sieve_oracle(S.generators, bound)

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            NumericalSemigroup.from_generators([4, 6])

    def test_bad_gap_set_rejected(self):
        # 4 = 2 + 2 with 2 a nongap
        with pytest.raises(ValueError):
            NumericalSemigroup.from_gaps([1, 4])

    @pytest.mark.parametrize("gens", [[3.7, 4], [True, 2], [1, True], ["3", "4"], "3,4", 7,
                                      [[3], 4], [], [0, 1]])
    def test_only_positive_ints_generate(self, gens):
        # a float, bool or string is refused, not rounded or parsed
        with pytest.raises(ValueError, match="^generators must be positive integers$"):
            NumericalSemigroup.from_generators(gens)

    @pytest.mark.parametrize("gaps", [[1.5], [True], ["1"], "1", 1, [0]])
    def test_only_positive_ints_are_gaps(self, gaps):
        with pytest.raises(ValueError, match="^gaps must be positive integers$"):
            NumericalSemigroup(gaps)
        with pytest.raises(ValueError, match="^gaps must be positive integers$"):
            NumericalSemigroup.from_gaps(gaps)


class TestSymmetry:
    def test_3_4_symmetric(self):
        assert NumericalSemigroup.from_generators([3, 4]).is_symmetric()

    def test_3_5_symmetric(self):
        assert NumericalSemigroup.from_generators([3, 5]).is_symmetric()

    def test_gaps_1_2_not_symmetric(self):
        S = NumericalSemigroup.from_gaps([1, 2])
        assert not S.is_symmetric()
        assert S.conductor == 3 and 2 * S.genus == 4


class TestWeight:
    def test_3_4(self):
        assert NumericalSemigroup.from_generators([3, 4]).weight() == 2

    def test_4_6_11(self):
        assert NumericalSemigroup.from_generators([4, 6, 11]).weight() == 12


class TestIdentities:
    def test_small_elements_identity(self):
        # sum(n_i - i) over elements below 2*delta equals (delta-1)delta - wt
        rng = random.Random(23)
        for _ in range(120):
            S = random_semigroup(rng)
            d = S.genus
            small = S.small_elements()
            assert len(small) == d
            assert sum(n - i for i, n in enumerate(small)) == (d - 1) * d - S.weight()

    def test_largest_gap_bound(self):
        rng = random.Random(29)
        for _ in range(120):
            S = random_semigroup(rng)
            if S.genus == 0:
                continue
            d = S.genus
            assert S.gaps[-1] <= 2 * d - 1
            # among integers below the conductor, gaps outnumber nongaps
            c = S.conductor
            nongaps = len(S.nongaps_below_conductor())
            assert d >= nongaps
            assert (S.gaps[-1] == 2 * d - 1) == S.is_symmetric()

    def test_regeneration_idempotent(self):
        rng = random.Random(31)
        for _ in range(60):
            S = random_semigroup(rng)
            nongaps = S.elements_below(2 * S.conductor + 2)[1:] or [1]
            assert NumericalSemigroup.from_generators(nongaps).gaps == S.gaps

    def test_minimal_generators_regenerate(self):
        rng = random.Random(37)
        for _ in range(60):
            S = random_semigroup(rng)
            T = NumericalSemigroup.from_generators(S.generators)
            assert T.gaps == S.gaps


class TestEnumeration:
    def test_symmetric_counts(self):
        by_genus = {}
        for S in symmetric_semigroups(6):
            by_genus.setdefault(S.genus, []).append(S)
        assert [len(by_genus[g]) for g in range(1, 7)] == [1, 1, 2, 3, 3, 6]

    def test_json_roundtrip(self):
        S = NumericalSemigroup.from_generators([3, 4])
        data = S.to_json()
        assert data == {"generators": [3, 4], "gaps": [1, 2, 5], "conductor": 6,
                        "genus": 3, "symmetric": True, "weight": 2}
