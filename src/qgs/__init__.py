"""Spectral, fusion and intertwiner toolkit for free orthogonal quantum groups.

The package is lazy: a public name imports its submodule on first access,
so a caller pays for numpy (the optional ``chain`` extra) only when it
builds the qubit-chain objects of ``templieb`` (``tl_rep``, a
``jones_wenzl`` basis or matrix, ``weight_matrix``, an isometry's ``V``),
which no CLI subcommand does, and for mpmath only when it does arithmetic
on a decimal q or calls an mpmath-only function (``hs_certificate``,
``gap_limit``, ...): exact data at rational q never imports it, a decimal
q is read and held as its exact binary value without it, and ``templieb``
runs its fusion kernels on decimal.Decimal.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule; __all__ and the lazy lookup read this table
_EXPORTS = {
    "chebyshev": ("ChebyshevPoly", "QParameter", "build_poly", "poly_derivative",
                  "poly_value", "poly_value_and_derivative", "q_number"),
    "errors": ("DegenerateRegimeError", "InvalidVectorError",
               "NumericalDegradationError", "ResourceLimitError"),
    "estimates": ("gap", "gap_constant_scan", "hs_certificate", "hs_coefficient",
                  "regime_classify"),
    "freewords": ("Expression", "Letter", "PhiSymbol", "apply_generator", "atom",
                  "circle", "expansion_sweep", "gradient_commutator",
                  "hs_propagation_bound", "multiply", "reduce_product", "star",
                  "verify_boundary_expansion", "word"),
    "fusion": ("dims", "fuse", "fusion_check", "fusion_grid", "growth_rate"),
    "precision": ("precision_bits", "set_precision_bits", "working_precision"),
    "spectrum": ("amenability_criterion", "cesaro_sum", "dirichlet_form", "eigenvalue",
                 "gap_limit", "multiplier", "resolvent_coeff", "semigroup_coeff",
                 "semigroup_rate", "spectral_data", "spectral_rows", "spectral_stream"),
    "templieb": ("commutator_estimate", "commutator_suite", "fusion_isometry",
                 "jones_wenzl", "jw_report", "pentagon_bound", "pentagon_defect",
                 "tl_rep", "weight_matrix"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Import the submodule that owns name (or is name) and keep the value."""
    module = _OWNER.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
