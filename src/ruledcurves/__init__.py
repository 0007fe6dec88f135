"""Braid-theoretic and comb-theoretic realizability tests for real
curves on ruled surfaces, with the degree-7 plane classification."""

from .braid import (
    BraidWord,
    GarsideNormalForm,
    compose,
    conjugate,
    delta,
    equals,
    exponent_sum,
    garside_normal_form,
    inverse,
    is_trivial,
    parse_braid,
    render_braid,
)
from .comb import (
    WeightedComb,
    algebraic_realizability_verdict,
    chain_successors,
    find_closure,
    is_closed,
    mu_count,
    mu_exists,
    parse_comb,
    parse_weighted_comb,
    render_comb,
    render_weighted_comb,
)
from .invariants import (
    alexander_polynomial,
    determinant_of_closure,
    obstructions,
    quasipositivity_verdict,
    reduced_burau,
)
from .laurent import (
    LaurentPoly,
    divide_exact,
    format_poly,
    gcd_primitive,
    has_simple_unit_circle_root,
    multiplicity_one_part,
    parse_poly,
)
from .lscheme import (
    LScheme,
    parse_scheme,
    render_scheme,
    rewrite_alg,
    rewrite_pseudo,
    root_scheme,
    to_braid,
    weighted_comb,
)
from .schemes7 import (
    CATEGORIES,
    ComplexSchemeCode,
    RealSchemeCode,
    enumerate_schemes,
    parse_complex_scheme,
    parse_real_scheme,
    realizable,
    render_complex_scheme,
    render_real_scheme,
    rokhlin_mischachev,
    symmetric_m_complex_schemes,
)

__version__ = "0.1.0"
