"""Chebyshev layer: frozen small cases, closed-form oracle, exact identities.

Frozen values below were derived by unrolling the three-term recursion by
hand (degrees 2 and 3) and from the classical specialization U_a(2) = a+1.
"""

import copy
import math
import pickle
import random
import sys
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ChebyshevPoly, build_poly, poly_derivative, poly_value_and_derivative,
                     to_mpf, working_precision)
from qgs.chebyshev import QParameter, _context, _decimal, _read, _root, poly_value, q_number
from qgs.precision import set_precision_bits


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


@pytest.mark.parametrize("N", [2, 3, 4, 10, 10**6])
def test_every_admitted_q_above_q0_is_kac(N):
    # hs_certificate and regime_classify read q < q0 as "not is_kac", which
    # holds only while _below_root admits no q above q0 outside is_kac's band
    def admitted(q):
        try:
            QParameter(q, N)
        except ValueError:
            return False
        return True

    q0 = QParameter.kac(N).q
    lo, hi = q0, 2 * q0  # q + 1/q < N at 2 q0 < 1, and q > 1 at N = 2
    with localcontext(Context(prec=60)):
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    assert admitted(lo) and not admitted(hi)
    assert QParameter(lo, N).is_kac


def test_qparameter_decimal_string_keeps_working_precision(monkeypatch):
    # a literal is its decimal value, rounded once only past the 80 digits of 256 bits
    monkeypatch.setenv("QGS_PRECISION_BITS", "256")
    q = QParameter("0.9999", 2).q
    assert type(q) is Decimal and q == Decimal("0.9999") and Fraction(q) == Fraction(9999, 10000)
    long = "0." + "9876543210" * 10
    q = QParameter(long, 2).q
    assert q == _context(256).plus(Decimal(long)) and len(q.as_tuple().digits) == 80
    assert abs(Fraction(q) - Fraction(long)) <= Fraction(1, 2 * 10**80)
    # a float is already exact and is kept as given
    assert QParameter(0.9999, 2).q == Decimal(0.9999) != Decimal("0.9999")


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
        # the 41 digits of 128 bits hold up to 41 nines exactly; 42 round to 1
        for count in (39, 40, 41):
            assert Fraction(QParameter("0." + "9" * count, 2).q) == 1 - Fraction(1, 10**count)
        with pytest.raises(ValueError, match="reads as 1 at 128 bits"):
            QParameter("0." + "9" * 42, 2)
        with pytest.raises(ValueError, match=r"^q = 0\.9{42} reads as 1 at 128 bits"):
            QParameter(Decimal("0." + "9" * 42), 2)
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
    # a copy or a pickle is the same model: a float's exact q and kac's 256-bit
    # root are not read again at the working width
    for p in (QParameter(0.3, 2), QParameter.kac(3), QParameter("0.3", 2), c):
        for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and type(twin) is QParameter and type(twin.q) is type(p.q)


def test_qparameter_replace_keeps_the_held_q():
    # a changed N is checked against q as held: a float's exact q and kac's
    # 256-bit root are not read again at the working width
    assert QParameter(0.3, 2)._replace(N=2).q == Decimal(0.3)
    kac = QParameter.kac(3)
    assert kac._replace(N=3).q == kac.q and kac._replace().q == kac.q
    assert type(kac._replace(N=3)) is QParameter
    assert QParameter(Fraction(1, 3), 2)._replace(N=3) == QParameter(Fraction(1, 3), 3)
    with pytest.raises(ValueError, match="is below N = 3"):
        QParameter(0.5, 2)._replace(N=3)
    with pytest.raises(ValueError, match="N must be an integer >= 2"):
        QParameter(0.5, 2)._replace(N=2.0)
    with pytest.raises(ValueError, match="unexpected field names"):
        QParameter(0.5, 2)._replace(M=2)
    # a new q is read as QParameter reads it
    assert QParameter(0.3, 2)._replace(q="0.25") == QParameter("0.25", 2)
    assert QParameter(0.3, 2)._replace(q="0.3", N=2).q != Decimal(0.3)


def test_qparameter_repr_and_immutability():
    assert repr(QParameter("0.5", 2)) == "QParameter(q=Decimal('0.5'), N=2)"
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
        (1j, 2, TypeError, "q must be Fraction, int, float, str or Decimal, not complex: pass it "
         "as str(q) or a Fraction"),
        (0, 2, ValueError, "q must lie in (0, 1]"),
        (Fraction(3, 2), 2, ValueError, "q must lie in (0, 1]"),
        ("1e-400", 2, ValueError, "q = 1e-400 is too small: q + 1/q exceeds the double range"),
        (Fraction(1, 2), 3, ValueError, "q + 1/q = 2.5 is below N = 3; q may not exceed the "
         "smallest positive root of x^2 - N*x + 1"),
        (mpmath.mpc(0.5, 1), 2, TypeError, "q must be Fraction, int, float, str or Decimal, not "
         "mpc: pass it as str(q) or a Fraction"),
        (mpmath.mpf("inf"), 2, TypeError, "q must be Fraction, int, float, str or Decimal, not "
         "mpf: pass it as str(q) or a Fraction"),
        (Decimal("1.5"), 2, ValueError, "q must lie in (0, 1]"),
        (Decimal("Infinity"), 2, ValueError, "q must lie in (0, 1]"),
        (Decimal("NaN"), 2, ValueError, "q must lie in (0, 1]"),
        (Decimal("1e-400"), 2, ValueError, "q = 1E-400 is too small: q + 1/q exceeds the double "
         "range"),
    ],
)
def test_qparameter_validation_messages(q, N, error, message):
    with pytest.raises(error) as info:
        QParameter(q, N)
    assert str(info.value) == message


_rng = random.Random(28)
# tl-chain draws, then the literal forms mpmath reads: an exponent at its
# correctly rounded limit, 300 nines, a bare point, a sign and a capital E
# (a rational string is read exactly: test_q_text_is_read_by_one_reader)
READINGS = [f"{_rng.uniform(0.005, 0.95):.4f}" for _ in range(40)] + [
    "1e-400", "0." + "9" * 300, ".5", "5.", "+0.3", "3E-2"]


@pytest.mark.parametrize("bits", [24, 53, 128, 256, 1024])
def test_decimal_strings_read_as_mpmath_reads_them(bits):
    # a literal the context of the width holds is read exactly, so at that
    # width it rounds to the binary number mpmath reads; 300 nines, which
    # only 1,024 bits hold, read as 1 to both below that
    width = max(bits, 53)
    try:
        set_precision_bits(bits)
        for text in READINGS:
            with mpmath.workprec(width):
                want = mpmath.mpf(text)
            if want == 1:
                with pytest.raises(ValueError, match=f"reads as 1 at {width} bits"):
                    _read(text, width)
                continue
            x = _read(text, width)
            assert type(x) is Decimal and x == Decimal(text), text
            with mpmath.workprec(width):
                assert to_mpf(x) == want, text
            if 0 < want < 1 and want > 1 / sys.float_info.max:  # the q QParameter admits
                assert QParameter(text, 2).q == x, text
    finally:
        set_precision_bits(None)


_REFUSED = r"must be Fraction, int, float, str or Decimal, not mp[fc]: pass it as str\(\w+\) or a Fraction"


def test_float_inputs_are_held_exactly_and_mpf_inputs_refused():
    for x in (0.1, 0.9999, 2.0 ** -1000, 1e-300, math.nextafter(1.0, 0)):
        q = QParameter(x, 2).q
        assert type(q) is Decimal and q == Decimal(x) and Fraction(q) == Fraction(x)
        assert float(q) == x
    # an mpf or an mpc is refused before any of its digits is read, whatever its size
    with mpmath.workprec(300):
        third = mpmath.mpf(1) / 3
    start = time.perf_counter()
    for x in (third, mpmath.mpf("1e-10000000"), -mpmath.mpf("1e-10000000"),
              mpmath.mpf("1e10000000"), mpmath.mpf("nan"), mpmath.mpc(0.5, 0)):
        with pytest.raises(TypeError, match=_REFUSED):
            QParameter(x, 2)
        with pytest.raises(TypeError, match=_REFUSED):
            _read(x, 128)
    assert time.perf_counter() - start < 0.5
    # its ways in: a Fraction is held exactly, and its text rounded once at the width
    man, exp = third.man_exp
    exact = Fraction(man, 2 ** -exp)
    assert QParameter(exact, 2).q == exact
    assert QParameter(str(third), 2).q == _context(128).plus(Decimal(str(third)))
    # a Decimal given back is rounded once, as its text would be
    q = Decimal(f"{man * 5 ** -exp}E{exp}")  # the 300-bit third, exactly
    assert Fraction(q) == exact and len(q.as_tuple().digits) > 200
    assert QParameter(q, 2).q == _context(128).plus(q) == QParameter(str(q), 2).q


@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_decimal_inputs_read_as_their_strings(bits):
    set_precision_bits(bits)
    try:
        for text in ("0.3", "0.381966011250105151795413165634", "1e-300", "0.25", "1.0"):
            assert QParameter(Decimal(text), 2).q.as_integer_ratio() == \
                QParameter(text, 2).q.as_integer_ratio()
        p = QParameter(Fraction(1, 3), 3)
        assert QParameter(p.q0, 3).q == QParameter(str(p.q0), 3).q  # a q0 is a q
        long = Decimal("0." + "123456789" * 7)  # 63 digits, rounded as a literal is
        assert QParameter(long, 2).q == _context(max(bits, 53)).plus(long)
        kac = QParameter.kac(3)  # the root at 256 bits or the width, not rounded to the width
        assert kac.q == _root(3, max(bits, 256)) and type(kac.q) is Decimal
    finally:
        set_precision_bits(None)


@pytest.mark.parametrize("bits", [24, 53, 128, 1024])
def test_numbers_join_a_context_rounded_once(bits):
    # each kind of caller's number is rounded once from its exact value
    ctx, rng = _context(bits), random.Random(bits)
    values = [0, 7, -3, 10**400 + 1, 0.1, -2.0 ** -1074, 1e300, Fraction(1, 3),
              Fraction(-10**500, 7), "0.1", "-1e-5000", " 2.5 ", Decimal("0.1") ** 500]
    refused = [mpmath.mpc(0.5, 1)]  # an mpf or an mpc is no number _decimal reads
    for _ in range(200):
        values.append(Fraction(rng.getrandbits(300) - 2**299, rng.getrandbits(200) + 1))
        values.append(Decimal(rng.getrandbits(400)).scaleb(rng.randint(-400, 400)))
        with mpmath.workprec(rng.randint(24, 2000)):
            refused.append(mpmath.mpf(rng.random()) ** rng.randint(-40, 40))
    values += [QParameter(text, 2).q for text in ("0.3", "0." + "7" * 60, 0.3)]
    for x in values:
        exact = Fraction(x.strip() if isinstance(x, str) else x)
        assert _decimal(x, ctx) == ctx.divide(exact.numerator, exact.denominator)
    for x in refused:
        with pytest.raises(TypeError, match=_REFUSED):
            _decimal(x, ctx)
    assert _decimal(float("inf"), ctx).is_infinite() and _decimal("nan", ctx).is_nan()
    with pytest.raises(ValueError, match="could not convert string to a number: '1/3'"):
        _decimal("1/3", ctx)


@pytest.mark.parametrize("text, message", [
    ("inf", "q must lie in (0, 1]"),
    ("nan", "q must lie in (0, 1]"),
    ("0.0", "q must lie in (0, 1]"),
    ("abc", "could not convert string to float: 'abc'"),
    ("0x1p-2", "could not convert string to float: '0x1p-2'"),
    ("", "could not convert string to float: ''"),
    ("0.5_0", "could not convert string to float: '0.5_0'"),  # past mpmath's own parser
    ("infinity", "could not convert string to float: 'infinity'"),
])
def test_strings_that_are_no_admissible_number_keep_their_errors(text, message):
    with pytest.raises(ValueError) as info:
        QParameter(text, 2)
    assert str(info.value) == message


def test_q_text_is_read_by_one_reader():
    # a '/' makes a Fraction and integer text an int, both exact, as the CLI read them
    for text, want in (("1/3", Fraction(1, 3)), (" 1/3 ", Fraction(1, 3)), ("2/6", Fraction(1, 3)),
                       ("1", Fraction(1)), (" 1 ", Fraction(1)), ("3/4", Fraction(3, 4))):
        q = QParameter(text, 2).q
        assert type(q) is Fraction and q == want, text
    assert _read("1/3", 53) == Fraction(1, 3) and _read(" 7 ", 53) == 7
    with pytest.raises(ValueError, match=r"^q = 1/0 has a zero denominator$"):
        QParameter("1/0", 2)
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '1/3.0'$"):
        QParameter("1/3.0", 2)
    for text in ("3", "0", "-1", "1_0"):
        with pytest.raises(ValueError, match=r"^q must lie in \(0, 1\]$"):
            QParameter(text, 2)
    # surrounding whitespace goes, as float() drops it
    assert QParameter(" 0.5 ", 2).q == Fraction(1, 2)
    assert type(QParameter("\t0.5\n", 2).q) is Decimal
    assert _read(" 0.3 ", 128) == _read("0.3", 128) == Decimal("0.3")
    # 'inf' and 'nan', in mpmath's spellings, are the floats the range check refuses
    for text in ("inf", "+inf", "-inf", " INF ", "nan", "NaN"):
        x = _read(text, 53)
        assert type(x) is float and not math.isfinite(x), text
    # a literal outside 1e-400..1e400 is settled by its size alone, without 10^|e|
    start = time.perf_counter()
    for text, sign, big in (("1e-999999999", 1, False), ("-3e-401", -1, False),
                            ("0.01e-398", 1, False), ("5e400", 1, True), ("-12e399", -1, True),
                            ("1e999999999", 1, True)):
        x = _read(text, 128)
        assert type(x) is Decimal and (x > 0) == (sign > 0), text
        assert (abs(x) > 10**400) if big else (0 < abs(x) <= Fraction(1, 10**400)), text
    assert time.perf_counter() - start < 0.5
    for text in ("1e400", "1e-400", "9.99e-400"):  # the range's own ends, read exactly
        assert _read(text, 128) == Decimal(text), text
    for text in ("0.00e999999999", "-0e-999999999", "0.0", 0.0):  # a zero
        assert _read(text, 128) == 0, text
    with pytest.raises(ValueError, match="too small"):
        QParameter("1e-999999999", 2)
    for text in ("0." + "1" * 5000, "1e" + "9" * 5000):  # past int()'s digit limit
        with pytest.raises(ValueError, match=r"^could not convert string to float: '"):
            QParameter(text, 2)
    with pytest.raises(ValueError, match=r"^q must lie in \(0, 1\]$"):
        QParameter("1e999999999", 2)
    # rounded once into the context of the working width, never below a float's
    long = "0." + "314159265358979323846264338327950288419716939937510582097494"  # 60 digits
    for bits in (24, 53, 128, 1024):
        set_precision_bits(bits)
        try:
            assert QParameter(long, 2).q == _context(max(bits, 53)).plus(Decimal(long))
            assert QParameter("0.3", 2).q == Decimal("0.3")
        finally:
            set_precision_bits(None)


def test_the_cost_of_q_stays_bounded():
    # q text is as costly as the working width, not as its own digits or
    # exponent, and an mpf is refused unread: each case ends in its record
    # or its usage error
    from qgs.spectrum import semigroup_coeff, spectral_rows
    from qgs.templieb import jw_report

    rng = random.Random(38)
    digits = "".join(rng.choice("0123456789") for _ in range(4000))
    start = time.perf_counter()
    p = QParameter("0." + digits, 2)
    assert len(p.q.as_tuple().digits) <= _context(128).prec
    assert 0 < semigroup_coeff(p, 100, 0.5) <= 1 and len(jw_report(p, 10)) == 10
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="reads as 1 at 128 bits"):
        spectral_rows(QParameter("0." + "9" * 4000, 2), 2000)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(TypeError, match=_REFUSED):
        QParameter(mpmath.mpf("1e-10000000"), 2)
    with mpmath.workprec(200000):  # a 200,000-bit third, which took seconds to hold
        third = mpmath.mpf(1) / 3
    with pytest.raises(TypeError, match=_REFUSED):
        QParameter(third, 2)
    assert time.perf_counter() - start < 1


def test_poly_class_value_types():
    p = ChebyshevPoly(2, (-1, 0, 1))
    assert p.value(Fraction(5, 2)) == Fraction(21, 4)
    assert isinstance(p.value(Fraction(5, 2)), Fraction)
