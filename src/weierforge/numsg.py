"""Numerical semigroups: gaps, conductor, symmetry and weight.

A numerical semigroup is an additively closed subset of the nonnegative
integers containing 0 and all but finitely many positive integers; the
missing ones are its gaps.
"""

from __future__ import annotations

import math

from .exact import _is_int


class NumericalSemigroup:
    """Cofinite additive subsemigroup of N, stored by its finite gap set."""

    __slots__ = ("gaps", "generators")

    def __init__(self, gaps, _validated=False):
        if not _validated:
            gaps = _positive_ints(gaps, "gaps")
            _check_gap_closure(gaps)
        self.gaps = gaps
        self.generators = tuple(_minimal_generators(gaps))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generators(cls, gens):
        gens = _positive_ints(gens, "generators")
        if not gens:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError("gcd of generators must be 1 (semigroup not cofinite)")
        # sieve reachable values up to a safe Frobenius bound
        bound = (gens[0] - 1) * (gens[-1] - 1) + 1
        reach = [False] * (bound + 1)
        reach[0] = True
        for n in range(1, bound + 1):
            for g in gens:
                if g <= n and reach[n - g]:
                    reach[n] = True
                    break
        gaps = tuple(n for n in range(1, bound + 1) if not reach[n])
        return cls(gaps, _validated=True)

    @classmethod
    def from_gaps(cls, gaps):
        return cls(gaps)

    # -- structure ----------------------------------------------------------

    @property
    def genus(self):
        return len(self.gaps)

    @property
    def conductor(self):
        return self.gaps[-1] + 1 if self.gaps else 0

    def __contains__(self, n):
        return n >= 0 and n not in self.gaps

    def elements_below(self, bound):
        return [n for n in range(bound) if n in self]

    def small_elements(self):
        """The genus-many elements below twice the genus (n_0 = 0 < n_1 < ...)."""
        return self.elements_below(2 * self.genus)

    def nongaps_below_conductor(self):
        return self.elements_below(self.conductor)

    def is_symmetric(self):
        """m in S iff c-1-m not in S; cross-checked against c = 2*genus."""
        c = self.conductor
        mirror = all((m in self) != (c - 1 - m in self) for m in range(c))
        counting = c == 2 * self.genus
        if mirror != counting:
            raise AssertionError("symmetry by mirror and by c = 2g disagree")
        return mirror

    def weight(self):
        """sum of (l_j - j) over the gaps l_1 < ... < l_genus."""
        return sum(l - j for j, l in enumerate(self.gaps, start=1))

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, NumericalSemigroup):
            return self.gaps == other.gaps
        return NotImplemented

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        return "NumericalSemigroup(gaps=%r)" % (list(self.gaps),)

    def __str__(self):
        return "<" + ",".join(str(g) for g in self.generators) + ">"

    def to_json(self):
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "conductor": self.conductor,
            "genus": self.genus,
            "symmetric": self.is_symmetric(),
            "weight": self.weight(),
        }


def _positive_ints(values, name):
    """The distinct values in ascending order; ValueError unless values is
    a collection of ints (not bools), each at least 1."""
    values = list(values) if hasattr(values, "__iter__") else [None]
    if not all(_is_int(v) and v >= 1 for v in values):
        raise ValueError("%s must be positive integers" % name)
    return tuple(sorted(set(values)))


def _check_gap_closure(gaps):
    """The complement of the gap set must be additively closed."""
    gapset = set(gaps)
    for l in gaps:
        for x in range(1, l // 2 + 1):
            if x not in gapset and (l - x) not in gapset:
                raise ValueError(
                    "gap set not admissible: %d = %d + %d with both parts in S"
                    % (l, x, l - x))


def _minimal_generators(gaps):
    """Elements of S that are not sums of two positive elements of S."""
    if not gaps:
        return (1,)
    c = gaps[-1] + 1
    gapset = set(gaps)
    elements = [n for n in range(1, 2 * c + 1) if n not in gapset]
    elemset = set(elements)
    gens = []
    for n in elements:
        if n >= 2 * c:
            break
        if not any(x in elemset and (n - x) in elemset for x in range(1, n // 2 + 1)):
            gens.append(n)
    return tuple(gens)
