"""Input checks across the package: each bad argument ends in its own error.

One case per check, for the checks that the suite does not reach through
any other test (QParameter's others are in test_chebyshev.py); the message
fragment pins which check fired.
"""

from fractions import Fraction

import mpmath
import pytest

from oracles import build_poly, poly_value_and_derivative
from qgs import precision
from qgs.chebyshev import QParameter, poly_value, q_number
from qgs.errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from qgs.estimates import gap, gap_constant_scan, hs_certificate, hs_coefficient
from qgs.freewords import Letter, _circle_into, _Table, atom, verify_boundary_expansion
from qgs.fusion import MAX_LABELS, dims, fusion_grid, growth_rate
from qgs.precision import precision_bits, set_precision_bits
from qgs.spectrum import (
    amenability_criterion,
    dirichlet_form,
    eigenvalue,
    multiplier,
    resolvent_coeff,
    semigroup_coeff,
    semigroup_rate,
    spectral_data,
)
from qgs.templieb import (
    commutator_estimate,
    commutator_suite,
    fusion_isometry,
    jw_report,
    pentagon_bound,
    pentagon_defect,
)

P = QParameter(Fraction(1, 2), 2)
UNIT = QParameter(1, 2)
HALF = QParameter(0.5, 2)
HALF_TEXT = QParameter("0.5", 2)
with mpmath.workprec(300):
    THIRD = mpmath.mpf(1) / 3
# a letter of two factors is not mean-zero, so a long word holding it cannot be centred
UNCENTERED = Letter(0, (("a", "x", False), ("a", "y", False)), False)


def _circle_long_word():
    """The centering kernel on a long word holding UNCENTERED, which no
    verification passes it."""
    t = _Table()
    return _circle_into(t, {}, {((t.intern(UNCENTERED), t.intern(atom(1, "b"))), ()): 1})


CASES = {
    # chebyshev
    "qparameter_N": (lambda: QParameter(Fraction(1, 2), 10**400), ValueError, "is below N"),
    "build_poly": (lambda: build_poly(-1), ValueError, "degree"),
    "poly_value": (lambda: poly_value(-1, 2), ValueError, "degree"),
    "poly_value_and_derivative": (lambda: poly_value_and_derivative(-1, 2), ValueError, "degree"),
    "q_number": (lambda: q_number(-1, P), ValueError, "q-number index"),
    # precision
    "set_precision_bits": (lambda: set_precision_bits(16), ValueError, "at least 24 bits"),
    "set_precision_bits_wide": (lambda: set_precision_bits(1025), ResourceLimitError,
                                "precision of 1025 bits exceeds 1024 bits"),
    # fusion
    "dims": (lambda: dims(P, -1), ValueError, "alpha_max must be >= 0"),
    "fusion_grid": (lambda: fusion_grid(P, -1), ValueError, "alpha_max must be >= 0"),
    "growth_rate": (lambda: growth_rate(P, 0), ValueError, "alpha_probe must be >= 1"),
    # spectrum
    "eigenvalue": (lambda: eigenvalue(P, -1), ValueError, "alpha must be >= 0"),
    "semigroup_coeff": (lambda: semigroup_coeff(P, -1, 0.5), ValueError, "alpha must be >= 0"),
    "semigroup_coeff_labels": (lambda: semigroup_coeff(P, MAX_LABELS, 0.5), ResourceLimitError,
                               "exceed 20000 labels"),
    "semigroup_coeff_nan": (lambda: semigroup_coeff(HALF, 3, float("nan")), ValueError,
                            "t must be a finite number > -1"),
    "semigroup_coeff_inf": (lambda: semigroup_coeff(HALF, 3, float("inf")), ValueError,
                            "t must be a finite number > -1"),
    "multiplier_nan": (lambda: multiplier(HALF, 3, float("nan")), ValueError,
                       "t must be a finite number >= 0"),
    # a non-finite eps or amplitude, which ended in NaN or an infinity
    "resolvent_inf": (lambda: resolvent_coeff(P, 0, float("inf")), ValueError,
                      "eps must be a finite number > 0"),
    "resolvent_inf_decimal": (lambda: resolvent_coeff(HALF_TEXT, 0, float("inf")), ValueError,
                              "eps must be a finite number > 0"),
    "dirichlet_nan": (lambda: dirichlet_form(P, {(1, 1, 1): float("nan")}), InvalidVectorError,
                      "every amplitude must be a finite number"),
    "dirichlet_inf": (lambda: dirichlet_form(HALF_TEXT, {(1, 1, 1): float("inf")}),
                      InvalidVectorError, "every amplitude must be a finite number"),
    "dirichlet_text": (lambda: dirichlet_form(P, {(1, 1, 1): "1"}), TypeError,
                       "amplitude '1' at .1, 1, 1. is not a number"),
    "semigroup_coeff_huge_t": (lambda: semigroup_coeff(HALF, 3, 1e30), ValueError,
                               "beyond the decimal exponent range"),
    "dirichlet_complex_inf": (lambda: dirichlet_form(P, {(1, 1, 1): complex(1, float("inf"))}),
                              InvalidVectorError, "every amplitude must be a finite number"),
    "semigroup_rate_q1": (lambda: semigroup_rate(UNIT, 3), DegenerateRegimeError, "q < 1"),
    "spectral_data": (lambda: spectral_data(P, -1), ValueError, "alpha_max must be >= 0"),
    "dirichlet_key": (lambda: dirichlet_form(P, {(1, 1): 1}), InvalidVectorError, "expected"),
    "dirichlet_triple": (lambda: dirichlet_form(P, {(-1, 1, 1): 1}), InvalidVectorError,
                         "bad index triple"),
    "amenability_warmup": (lambda: amenability_criterion(P, 100, warmup=1), ValueError,
                           "warmup must be >= 2"),
    # the label ceiling of the walk along the multiplicities: labels 0..19,999
    # cover 20000 * 20001 * 40001 / 6 eigenvalues at N = 2
    "amenability_labels": (lambda: amenability_criterion(P, 20000 * 20001 * 40001 // 6 + 1),
                           ResourceLimitError, "needs over 20000 labels"),
    # estimates
    "gap_labels": (lambda: gap(P, -1, 2, 0), ValueError, "labels must be >= 0"),
    "scan_gamma_max": (lambda: gap_constant_scan(P, 20, -1), ValueError, "gamma_max must be >= 0"),
    # templieb
    "isometry_labels": (lambda: fusion_isometry(P, -1, 1, 0), ValueError,
                        "labels must be nonnegative"),
    "pentagon_labels": (lambda: pentagon_defect(P, 0, 1, 1, -1, 1), ValueError,
                        "shifted labels must be nonnegative"),
    "commutator_shifts": (lambda: commutator_estimate(P, 3, 1, 1, 2, 1), ValueError,
                          "must be +1 or -1"),
    "commutator_labels": (lambda: commutator_estimate(P, 0, 1, 1, -1, 1), ValueError,
                          "must stay nonnegative"),
    "jw_report": (lambda: jw_report(P, 0), ValueError, "need at least one site"),
    # a number of another library is refused at every real-valued input: read
    # through float(), a 300-bit mpf would keep 53 of its bits
    "mpf_q": (lambda: QParameter(THIRD, 2), TypeError, "q must be Fraction, int, float, str or "
              "Decimal, not mpf: pass it as str"),
    "mpf_semigroup_t": (lambda: semigroup_coeff(HALF, 3, THIRD), TypeError, "not mpf: pass it"),
    "mpf_multiplier_t": (lambda: multiplier(P, 3, THIRD), TypeError, "not mpf: pass it"),
    "mpf_hs_coefficient_t": (lambda: hs_coefficient(HALF, 3, 4, 1, THIRD), TypeError,
                             "not mpf: pass it"),
    "mpf_hs_certificate_t": (lambda: hs_certificate(P, THIRD, 30), TypeError, "not mpf: pass it"),
    "mpf_resolvent_eps": (lambda: resolvent_coeff(P, 3, THIRD), TypeError, "not mpf: pass it"),
    "mpf_dirichlet_value": (lambda: dirichlet_form(P, {(1, 1, 1): THIRD}), TypeError,
                            "not mpf: pass it"),
    "mpc_dirichlet_value": (lambda: dirichlet_form(HALF, {(1, 1, 1): mpmath.mpc(THIRD, 1)}),
                            TypeError, "not mpf: pass it"),
    # inputs past the float range
    "pentagon_bound_exponent": (lambda: pentagon_bound(HALF_TEXT, 10**400, 1, 1), ValueError,
                                "outside the normal double range"),
    "isometry_work": (lambda: fusion_isometry(UNIT, 10**200, 10**200, 2), ResourceLimitError,
                      "above 1000000"),
    "isometry_bits": (lambda: fusion_isometry(HALF_TEXT, 10**400, 1, 10**400 + 1),
                      ResourceLimitError, "at inf bits"),
    "commutator_suite_work": (lambda: commutator_suite(UNIT, [10**200]), ResourceLimitError,
                              "above 1000000"),
    # freewords
    "circle_long_word": (_circle_long_word, ValueError, "cannot center a long word"),
    "verify_limits": (lambda: verify_boundary_expansion((), (), (), max_x=-1), ValueError,
                      "max_x and max_side must be >= 0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_check(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message.replace("+", r"\+")):
        call()


@pytest.mark.parametrize(
    "value, message", [("many", "must be an integer, got 'many'"), ("16", "at least 24")]
)
def test_precision_environment_checks(monkeypatch, value, message):
    monkeypatch.setattr(precision, "_override", None)
    monkeypatch.setenv("QGS_PRECISION_BITS", value)
    with pytest.raises(ValueError, match=message):
        precision_bits()


def test_precision_environment_width_ceiling(monkeypatch):
    monkeypatch.setattr(precision, "_override", None)
    monkeypatch.setenv("QGS_PRECISION_BITS", "1025")
    with pytest.raises(ResourceLimitError, match="QGS_PRECISION_BITS of 1025 bits exceeds 1024"):
        precision_bits()
    monkeypatch.setenv("QGS_PRECISION_BITS", "1024")
    assert precision_bits() == 1024
