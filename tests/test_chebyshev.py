"""Chebyshev layer: frozen small cases, closed-form oracle, exact identities.

Frozen values below were derived by unrolling the three-term recursion by
hand (degrees 2 and 3) and from the classical specialization U_a(2) = a+1.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs.chebyshev import (
    ChebyshevPoly,
    Dyadic,
    QParameter,
    _read,
    build_poly,
    poly_derivative,
    poly_value,
    poly_value_and_derivative,
    q_number,
)
from qgs.precision import _is_mp, set_precision_bits, working_precision


def test_build_poly_small_degrees():
    assert build_poly(0).coeffs == (1,)
    assert build_poly(1).coeffs == (0, 1)
    # unrolled once: x*x - 1
    assert build_poly(2).coeffs == (-1, 0, 1)
    # unrolled twice: x^3 - 2x
    assert build_poly(3).coeffs == (0, -2, 0, 1)


def test_leading_coefficient_and_parity():
    for a in range(40):
        p = build_poly(a)
        assert p.coeffs[-1] == 1
        for idx, c in enumerate(p.coeffs):
            if (idx - a) % 2 != 0:
                assert c == 0


def test_value_at_two_is_degree_plus_one():
    for a in range(60):
        assert build_poly(a).value(2) == a + 1
        assert poly_value(a, 2) == a + 1


def test_value_spot_checks():
    assert poly_value(1, 2.5) == 2.5
    assert poly_value(2, 2.5) == 5.25
    assert poly_value(5, 2) == 6


def test_coefficient_route_matches_recurrence_route():
    for a in range(26):
        for x in (2.0, 2.5, 3.7, 6.0):
            direct = build_poly(a).value(x)
            rec = poly_value(a, x)
            assert math.isclose(direct, rec, rel_tol=1e-12)


def test_closed_form_agreement_high_precision():
    # oracle: (q^-(a+1) - q^(a+1)) / (q^-1 - q), evaluated independently
    for qnum, qden in ((1, 5), (1, 2), (4, 5)):
        with working_precision(192):
            q = mpmath.mpf(qnum) / qden
            x = q + 1 / q
            denom = 1 / q - q
            for a in range(501):
                val = poly_value(a, x)
                oracle = (q ** (-(a + 1)) - q ** (a + 1)) / denom
                assert abs(val - oracle) / oracle <= mpmath.mpf("1e-12")


def test_derivative_trivial_degrees():
    assert poly_derivative(0, 3.3) == 0
    assert poly_derivative(1, 3.3) == 1
    assert poly_derivative(2, 2.5) == 5


def test_derivative_matches_finite_difference():
    h = 1e-6
    for a in range(51):
        for x in (2.2, 2.5, 3.0):
            exact = poly_derivative(a, x)
            fd = (poly_value(a, x + h) - poly_value(a, x - h)) / (2 * h)
            assert math.isclose(exact, fd, rel_tol=1e-6, abs_tol=1e-9)


def test_value_and_derivative_pair_consistency():
    for a in range(30):
        u, du = poly_value_and_derivative(a, 2.7)
        assert u == poly_value(a, 2.7)
        assert du == poly_derivative(a, 2.7)


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_value_and_derivative_match_coefficients_exactly():
    # Horner on the exact coefficient vectors is a route apart from the recurrence
    for x in (Fraction(5, 2), Fraction(7, 3)):
        for a in range(41):
            p = build_poly(a)
            want = (horner(p.coeffs, x), horner(p.derivative_coeffs(), x))
            assert poly_value_and_derivative(a, x) == want


def test_derivative_coeffs_exact():
    p = build_poly(3)
    assert p.derivative_coeffs() == (-2, 0, 3)


def test_q_number_spot_values():
    param = QParameter(Fraction(1, 2), 2)
    assert q_number(0, param) == 0
    assert q_number(1, param) == 1
    assert q_number(2, param) == Fraction(5, 2)
    assert q_number(4, param) == Fraction(85, 8)  # 10.625
    seq = [q_number(n, param) for n in range(1, 7)]
    assert [float(v) for v in seq] == [1, 2.5, 5.25, 10.625, 21.3125, 42.65625]


def test_q_number_classical_limit():
    param = QParameter(1, 2)
    assert q_number(3, param) == 3
    for n in range(12):
        assert q_number(n, param) == n


def test_q_number_recursion():
    param = QParameter(Fraction(1, 2), 2)
    nq = param.nq
    for n in range(1, 30):
        assert q_number(n + 1, param) == nq * q_number(n, param) - q_number(n - 1, param)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=25),
    gap=st.integers(min_value=0, max_value=25),
    qfrac=st.fractions(min_value=Fraction(1, 9), max_value=Fraction(1, 3), max_denominator=9),
)
def test_q_number_product_rule(n, gap, qfrac):
    # [m][n+1] - [m+1][n] = [m-n], exact in rational arithmetic
    m = n + gap
    param = QParameter(qfrac, 2)
    lhs = q_number(m, param) * q_number(n + 1, param) - q_number(m + 1, param) * q_number(n, param)
    assert lhs == q_number(m - n, param)


def test_qparameter_validation():
    with pytest.raises(ValueError):
        QParameter(0, 3)
    with pytest.raises(ValueError):
        QParameter(1.5, 2)
    with pytest.raises(ValueError):
        QParameter(-0.3, 2)
    with pytest.raises(ValueError):
        QParameter(0.9, 3)  # q + 1/q < N
    with pytest.raises(ValueError):
        QParameter(0.5, 1)
    with pytest.raises(ValueError):
        QParameter(1.0, 3)  # q = 1 only admissible at N = 2


def test_qparameter_invariants():
    p = QParameter(Fraction(1, 2), 2)
    assert float(p.nq) == 2.5
    assert float(p.nq) >= p.N
    assert 0 < float(p.q) <= float(p.q0) <= 1
    assert not p.is_kac
    # no model pairs q = 0.5 with N = 3: q + 1/q = 2.5 < 3
    with pytest.raises(ValueError):
        QParameter(Fraction(1, 2), 3)

    kac3 = QParameter.kac(3)
    assert kac3.is_kac
    assert abs(float(kac3.q) - (3 - math.sqrt(5)) / 2) < 1e-12
    assert abs(float(kac3.nq) - 3) < 1e-12

    n2 = QParameter(1, 2)
    assert n2.is_kac
    assert n2.q0 == 1
    assert n2.nq == 2
    assert QParameter.kac(2) == n2  # exactly q = 1, a Fraction
    assert type(QParameter.kac(2).q) is Fraction


def test_qparameter_decimal_string_keeps_working_precision(monkeypatch):
    # 0.9999 has no finite binary expansion, so a 53-bit parse is off by ~1e-17
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    q = QParameter("0.9999", 2).q
    man, exp = q.man_exp
    assert man.bit_length() > 200
    assert abs(Fraction(man) * Fraction(2) ** exp - Fraction(9999, 10000)) < Fraction(1, 2 ** 256)
    # a float is already exact and is kept as given
    assert QParameter(0.9999, 2).q == mpmath.mpf(0.9999)


def test_qparameter_refuses_a_decimal_string_read_as_one():
    # 1 - 10^-300 is 1 at 128 bits; read as q = 1 it would run the q = 1 model
    nines = "0." + "9" * 300
    try:
        set_precision_bits(128)
        for text in (nines, "1." + "0" * 300 + "1"):
            with pytest.raises(ValueError, match="reads as 1 at 128 bits: give q as a fraction"):
                QParameter(text, 2)
        assert QParameter("0." + "9" * 30, 2).q < 1
        assert QParameter("1.0", 2).q == 1
        set_precision_bits(1024)
        assert QParameter(nines, 2).q < 1
    finally:
        set_precision_bits(None)


def test_qparameter_equality_and_hash():
    a = QParameter(Fraction(1, 2), 2)
    b = QParameter(Fraction(1, 2), 2)
    c = QParameter(Fraction(1, 4), 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    # a decimal q equals the fraction of the same value, and hashes with it
    assert QParameter("0.5", 2) == a
    assert hash(QParameter("0.5", 2)) == hash(a)
    assert QParameter("0.25", 3) != QParameter("0.25", 2) != 0.25


def test_qparameter_repr_and_immutability():
    assert repr(QParameter("0.5", 2)) == "QParameter(q=mpf('0.5'), N=2)"
    assert repr(QParameter(1, 2)) == "QParameter(q=Fraction(1, 1), N=2)"
    assert repr(QParameter(Fraction(1, 3), 3)) == "QParameter(q=Fraction(1, 3), N=3)"
    p = QParameter("0.5", 2)
    for name in ("q", "N"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
    assert p.q == 0.5 and p.N == 2


@pytest.mark.parametrize(
    "q, N, error, message",
    [
        (Fraction(1, 2), 1, ValueError, "N must be an integer >= 2"),
        (Fraction(1, 2), 2.0, ValueError, "N must be an integer >= 2"),
        (True, 2, ValueError, "q must be a number in (0, 1]"),
        (1j, 2, TypeError, "q must be Fraction, int, float, str or mpf"),
        (0, 2, ValueError, "q must lie in (0, 1]"),
        (Fraction(3, 2), 2, ValueError, "q must lie in (0, 1]"),
        ("1e-400", 2, ValueError, "q = 1.0e-400 is too small: q + 1/q exceeds the double range"),
        (Fraction(1, 2), 3, ValueError, "q + 1/q = 2.5 is below N = 3; q may not exceed the "
         "smallest positive root of x^2 - N*x + 1"),
        (mpmath.mpc(0.5, 1), 2, TypeError, "no ordering relation is defined for complex numbers"),
        (mpmath.mpf("inf"), 2, ValueError, "q must lie in (0, 1]"),
    ],
)
def test_qparameter_validation_messages(q, N, error, message):
    with pytest.raises(error) as info:
        QParameter(q, N)
    assert str(info.value) == message


_rng = random.Random(28)
# tl-chain draws, then the literal forms mpmath reads: an exponent at its
# correctly rounded limit, 300 nines, a bare point, a sign, a capital E,
# and a rational string, which mpmath itself reads
READINGS = [f"{_rng.uniform(0.005, 0.95):.4f}" for _ in range(40)] + [
    "1e-400", "0." + "9" * 300, ".5", "5.", "+0.3", "3E-2", "1/3"]


@pytest.mark.parametrize("bits", [24, 53, 128, 256, 1024])
def test_decimal_strings_read_as_mpmath_reads_them(bits):
    width = max(bits, 53)
    try:
        set_precision_bits(bits)
        for text in READINGS:
            with mpmath.workprec(width):
                want = mpmath.mpf(text)
            assert _read(text, width).man_exp == want.man_exp, text
            if 0 < want < 1 and want > 1 / sys.float_info.max:  # the q QParameter admits
                assert QParameter(text, 2).q.man_exp == want.man_exp, text
    finally:
        set_precision_bits(None)


def test_float_and_mpf_inputs_are_held_exactly():
    for x in (0.1, 0.9999, 2.0 ** -1000, 1e-300, math.nextafter(1.0, 0)):
        q = QParameter(x, 2).q
        assert type(q) is Dyadic and q == Fraction(x) and float(q) == x
        assert q.man_exp == mpmath.mpf(x).man_exp
    with mpmath.workprec(300):
        third = mpmath.mpf(1) / 3
    q = QParameter(third, 2).q  # kept at its 300 bits, not rounded to 128
    assert type(q) is Dyadic and q.man_exp == third.man_exp and q.bc == 300
    assert QParameter(q, 2).q is q


@pytest.mark.parametrize("text, message", [
    ("inf", "q must lie in (0, 1]"),
    ("nan", "q must lie in (0, 1]"),
    ("0.0", "q must lie in (0, 1]"),
    ("abc", "could not convert string to float: 'abc'"),
    ("0x1p-2", "could not convert string to float: '0x1p-2'"),
    ("", "could not convert string to float: ''"),
])
def test_strings_that_are_no_admissible_number_keep_their_errors(text, message):
    with pytest.raises(ValueError) as info:
        QParameter(text, 2)
    assert str(info.value) == message


def test_dyadic_is_its_exact_value_and_an_mpf_to_mpmath():
    d = QParameter("0.3", 2).q
    exact = Fraction(*d.as_integer_ratio())
    with working_precision(53) as mp:
        m = mp.mpf("0.3")
    with working_precision(128) as mp:
        m128 = mp.mpf("0.3")
    assert exact == Fraction(int(m128.man), 2 ** -m128.exp)
    # exact comparisons with exact data, floats, mpfs and other Dyadics
    assert d == exact and hash(d) == hash(exact) and d != Fraction(3, 10)
    assert d == m128 and m128 == d and d != m and d > m and m < d
    assert Fraction(3, 10) < d < 0.3 + 1e-16 and not d < Fraction(3, 10)
    assert -math.inf < d < math.inf and not d == math.nan and d != math.nan
    assert d == Dyadic(*d.man_exp) and d < Dyadic(1, 0) and Dyadic(0, 5) == 0
    assert float(d) == 0.3 and d.man_exp == m128.man_exp and d.bc == m128.bc and _is_mp(d)
    assert float(Dyadic(3, 2000)) == math.inf and float(Dyadic(-3, 2000)) == -math.inf
    # mpmath reads it as the mpf of the same value; repr, str and arithmetic are mpmath's
    assert mpmath.mpf(d) == m and mpmath.mpf(d) is not d
    with working_precision(128) as mp:
        assert mp.mpf(d) == m128 and mp.sqrt(d) == mp.sqrt(m128)
        assert d + 1 == m128 + 1 and 1 / d == 1 / m128 and d ** 2 == m128 ** 2 and -d == -m128
    assert repr(d) == repr(m128) and str(d) == str(m128)


def test_poly_class_value_types():
    p = ChebyshevPoly(2, (-1, 0, 1))
    assert p.value(Fraction(5, 2)) == Fraction(21, 4)
    assert isinstance(p.value(Fraction(5, 2)), Fraction)
