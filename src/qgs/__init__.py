"""Spectral, fusion and intertwiner toolkit for free orthogonal quantum groups."""

from .chebyshev import ChebyshevPoly, QParameter, build_poly, poly_derivative, poly_value, poly_value_and_derivative, q_number
from .errors import DegenerateRegimeError, InvalidVectorError, NumericalDegradationError, ResourceLimitError
from .estimates import gap, gap_constant_scan, hs_certificate, hs_coefficient, regime_classify
from .freewords import Expression, Letter, PhiSymbol, apply_generator, atom, circle, expansion_sweep, gradient_commutator, hs_propagation_bound, multiply, reduce_product, star, verify_boundary_expansion, word
from .fusion import dims, fuse, fusion_check, growth_rate
from .precision import precision_bits, set_precision_bits, working_precision
from .spectrum import amenability_criterion, cesaro_sum, dirichlet_form, eigenvalue, gap_limit, multiplier, resolvent_coeff, semigroup_coeff, semigroup_rate, spectral_data, spectral_rows, spectral_stream
from .templieb import commutator_estimate, commutator_suite, fusion_isometry, jones_wenzl, jw_report, pentagon_bound, pentagon_defect, tl_rep, weight_matrix

__version__ = "0.1.0"

__all__ = [
    "ChebyshevPoly",
    "QParameter",
    "build_poly",
    "poly_derivative",
    "poly_value",
    "poly_value_and_derivative",
    "q_number",
    "DegenerateRegimeError",
    "InvalidVectorError",
    "NumericalDegradationError",
    "ResourceLimitError",
    "gap",
    "gap_constant_scan",
    "hs_certificate",
    "hs_coefficient",
    "regime_classify",
    "Expression",
    "Letter",
    "PhiSymbol",
    "apply_generator",
    "atom",
    "circle",
    "expansion_sweep",
    "gradient_commutator",
    "hs_propagation_bound",
    "multiply",
    "reduce_product",
    "star",
    "verify_boundary_expansion",
    "word",
    "dims",
    "fuse",
    "fusion_check",
    "growth_rate",
    "precision_bits",
    "set_precision_bits",
    "working_precision",
    "amenability_criterion",
    "cesaro_sum",
    "dirichlet_form",
    "eigenvalue",
    "gap_limit",
    "multiplier",
    "resolvent_coeff",
    "semigroup_coeff",
    "semigroup_rate",
    "spectral_data",
    "spectral_rows",
    "spectral_stream",
    "commutator_estimate",
    "commutator_suite",
    "fusion_isometry",
    "jones_wenzl",
    "jw_report",
    "pentagon_bound",
    "pentagon_defect",
    "tl_rep",
    "weight_matrix",
    "__version__",
]
