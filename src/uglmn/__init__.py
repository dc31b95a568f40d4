"""Exact symbolic computations in the quantum general linear supergroup,
realized on polynomial superalgebras and their formal power series."""

from .linear import LinComb
from .polyaction import (
    ONE_ZERO,
    ZERO_ONE,
    DividedMonomial,
    act_factor,
    act_tensor,
    act_tensor_coproduct,
    act_word_factor,
    highest_weight_word,
)
from .qcoeff import VFunc, VPoly, quantum_factorial, quantum_integer, v_sub
from .regular import (
    SeriesBasis,
    act_letter,
    act_word,
    compare_truncated,
    expand_as_words,
    leading_decompose,
    monomial_word,
    multiply,
    to_signed,
    truncate,
)
from .relcheck import check_relation, compound_serre_words, full_suite, relations_for
from .superindex import Profile, SuperMatrix

__version__ = "0.1.0"
