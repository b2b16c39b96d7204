"""Spectral, fusion and intertwiner toolkit for free orthogonal quantum groups.

The package is lazy: a public name imports its submodule on first access.
Nothing in it needs more than the standard library, and every public
function takes and returns standard-library numbers: a decimal q is held as
a decimal.Decimal, and so is every number computed at it, rounded to the
working precision.  A number of another library is refused with a
TypeError; pass it as str(x) or a Fraction.
The arithmetic on a returned Decimal follows the caller's decimal
context, of 28 digits by default: widen it with decimal.localcontext.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule; __all__ and the lazy lookup read this table
_EXPORTS = {
    "chebyshev": ("QParameter", "poly_value", "q_number"),
    "errors": ("DegenerateRegimeError", "InvalidVectorError",
               "NumericalDegradationError", "ResourceLimitError"),
    "estimates": ("gap", "gap_constant_scan", "hs_certificate", "hs_coefficient",
                  "regime_classify"),
    "freewords": ("Expression", "Letter", "PhiSymbol", "atom", "expansion_sweep",
                  "verify_boundary_expansion"),
    "fusion": ("dims", "fuse", "fusion_check", "fusion_grid", "growth_rate"),
    "precision": ("precision_bits", "set_precision_bits"),
    "spectrum": ("amenability_criterion", "cesaro_sum", "dirichlet_form", "eigenvalue",
                 "gap_limit", "multiplier", "resolvent_coeff", "semigroup_coeff",
                 "semigroup_rate", "spectral_data", "spectral_rows", "spectral_stream"),
    "templieb": ("commutator_estimate", "commutator_suite", "fusion_isometry",
                 "jw_report", "pentagon_bound", "pentagon_defect"),
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
