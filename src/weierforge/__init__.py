"""weierforge: exact Weierstrass weights on rational Gorenstein curves."""

from .exact import (
    GF,
    INF,
    QQ,
    Polynomial,
    RationalFunction,
    field_of_characteristic,
    fraction_free_rank_det,
)
from .numsg import NumericalSemigroup
from .padic import (
    binom_mod_p,
    monomial_order_sequence,
    satisfies_p_adic_criterion,
)
from .wronski import LinearSystem, order_sequence, wronskian

__version__ = "0.1.0"

__all__ = [
    "GF",
    "INF",
    "QQ",
    "LinearSystem",
    "NumericalSemigroup",
    "Polynomial",
    "RationalFunction",
    "binom_mod_p",
    "field_of_characteristic",
    "fraction_free_rank_det",
    "monomial_order_sequence",
    "order_sequence",
    "satisfies_p_adic_criterion",
    "wronskian",
    "__version__",
]
