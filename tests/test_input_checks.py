"""Input checks across the package: each bad argument ends in its own error.

One case per check, for the checks that the suite does not reach through
any other test (QParameter's are in test_chebyshev.py); the message
fragment pins which check fired.
"""

from fractions import Fraction

import pytest

from qgs import precision
from qgs.chebyshev import QParameter, build_poly, poly_value, poly_value_and_derivative, q_number
from qgs.errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from qgs.estimates import gap, gap_constant_scan, hs_certificate
from qgs.freewords import Expression, Letter, atom, circle, hs_propagation_bound, word
from qgs.fusion import dims, growth_rate
from qgs.precision import precision_bits, set_precision_bits
from qgs.spectrum import (
    amenability_criterion,
    dirichlet_form,
    eigenvalue,
    semigroup_coeff,
    semigroup_rate,
    spectral_data,
)
from qgs.templieb import (
    commutator_estimate,
    fusion_isometry,
    jones_wenzl,
    jw_report,
    pentagon_defect,
    tl_rep,
)

P = QParameter(Fraction(1, 2), 2)
UNIT = QParameter(1, 2)
# a letter of two factors is not mean-zero, so a long word holding it cannot be centred
UNCENTERED = Letter(0, (("a", "x", False), ("a", "y", False)), False)


CASES = {
    # chebyshev
    "build_poly": (lambda: build_poly(-1), ValueError, "degree"),
    "poly_value": (lambda: poly_value(-1, 2), ValueError, "degree"),
    "poly_value_and_derivative": (lambda: poly_value_and_derivative(-1, 2), ValueError, "degree"),
    "q_number": (lambda: q_number(-1, P), ValueError, "q-number index"),
    # precision
    "set_precision_bits": (lambda: set_precision_bits(16), ValueError, "at least 24 bits"),
    # fusion
    "dims": (lambda: dims(P, -1), ValueError, "alpha_max must be >= 0"),
    "growth_rate": (lambda: growth_rate(P, 0), ValueError, "alpha_probe must be >= 1"),
    # spectrum
    "eigenvalue": (lambda: eigenvalue(P, -1), ValueError, "alpha must be >= 0"),
    "semigroup_coeff": (lambda: semigroup_coeff(P, -1, 0.5), ValueError, "alpha must be >= 0"),
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
    "hs_margin": (lambda: hs_certificate(P, 0.5, 30, margin=0), ValueError, "margin must lie"),
    # templieb
    "tl_index": (lambda: tl_rep(P, 3).apply(3, [0.0] * 8), ValueError, "generator index 3"),
    "tl_dense": (lambda: tl_rep(P, 13).generator_matrix(1), ResourceLimitError, "dense generator"),
    "jw_dense": (lambda: jones_wenzl(P, 13).matrix(), ResourceLimitError, "dense projection"),
    "jw_label": (lambda: jones_wenzl(P, -1), ValueError, "label must be nonnegative"),
    "isometry_labels": (lambda: fusion_isometry(P, -1, 1, 0), ValueError,
                        "labels must be nonnegative"),
    "pentagon_labels": (lambda: pentagon_defect(P, 0, 1, 1, -1, 1), ValueError,
                        "shifted labels must be nonnegative"),
    "commutator_shifts": (lambda: commutator_estimate(P, 3, 1, 1, 2, 1), ValueError,
                          "must be +1 or -1"),
    "commutator_labels": (lambda: commutator_estimate(P, 0, 1, 1, -1, 1), ValueError,
                          "must stay nonnegative"),
    "jw_report": (lambda: jw_report(P, 0), ValueError, "need at least one site"),
    # freewords
    "word_letters": (lambda: word("x"), TypeError, "built from Letter values"),
    "circle_long_word": (lambda: circle(Expression.from_word((UNCENTERED, atom(1, "b")))),
                         ValueError, "cannot center a long word"),
    "propagation_bound": (lambda: hs_propagation_bound([1.0], -1, 1, 1, 1, 1, 0), ValueError,
                          "scalar_bound must be nonnegative"),
    "propagation_lengths": (lambda: hs_propagation_bound([1.0], 1, 1, 1, -1, 1, 0), ValueError,
                            "word lengths must be nonnegative"),
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
