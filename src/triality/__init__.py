"""Exact-arithmetic toolkit for the order-3 outer symmetry of so(8).

Builds the octonions from the Fano plane, the 28-dimensional Lie algebra
so(8) with its quadruple decomposition, the order-3 automorphism whose fixed
subalgebra is the rank-2 exceptional algebra, and the exact transformation
laws of the invariant-polynomial basis (trace powers and the Pfaffian).
Everything is rational arithmetic; every check is an identity.
"""

from .exact import ConsistencyError, Rational, SquareMatrix, format_rational
from .octonion import (FANO_LINES, Octonion, basis_product, inner_product,
                       is_algebra_automorphism, multiplication_table_symbols,
                       rotation_automorphism, rotation_matrix, structure_constants)
from .so8 import (DIMENSION, GENERATORS, Generator, Quadruple, So8Element,
                  bracket, quadruples, random_element)
from .automorphisms import (ORDER3_BLOCK, FixedSubalgebra, TrialityMap,
                            fixed_subalgebra, g2_fixed_subalgebra,
                            identify_fixed_algebra, killing_form,
                            outer_involution, sigma, so7_fixed_subalgebra,
                            verify_bracket_preservation)
from .invariants import (C3_COEFFICIENTS, T_MATRIX, InvariantVector,
                         SpectralCoefficients, canonical_block_element,
                         derive_c3_coefficients, eigenstructure_check,
                         eta_model_values, fixed_degree6_space, g2_restriction,
                         invariant_vector, newton_coefficients,
                         pfaffian_matchings, pfaffian_permutation_sum,
                         sigma_transform_invariants, spectral_coefficients,
                         spectral_discriminant, tr_power)
from .verify import RunConfig, SUITES, build_report, report_passed

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError", "Rational", "SquareMatrix", "format_rational",
    "FANO_LINES", "Octonion", "basis_product", "inner_product",
    "is_algebra_automorphism", "multiplication_table_symbols",
    "rotation_automorphism", "rotation_matrix", "structure_constants",
    "DIMENSION", "GENERATORS", "Generator", "Quadruple", "So8Element",
    "bracket", "quadruples", "random_element",
    "ORDER3_BLOCK", "FixedSubalgebra", "TrialityMap", "fixed_subalgebra",
    "g2_fixed_subalgebra", "identify_fixed_algebra", "killing_form",
    "outer_involution", "sigma", "so7_fixed_subalgebra",
    "verify_bracket_preservation",
    "C3_COEFFICIENTS", "T_MATRIX", "InvariantVector", "SpectralCoefficients",
    "canonical_block_element", "derive_c3_coefficients",
    "eigenstructure_check", "eta_model_values", "fixed_degree6_space",
    "g2_restriction", "invariant_vector", "newton_coefficients",
    "pfaffian_matchings", "pfaffian_permutation_sum",
    "sigma_transform_invariants", "spectral_coefficients", "spectral_discriminant",
    "tr_power",
    "RunConfig", "SUITES", "build_report", "report_passed",
]
