"""Second-difference gap bounds, summability certificates, regime flags.

The spot values for the gap functional at q = 1/2, alpha = beta = 5,
gamma = 1 were derived by hand: the bound side is
5|q^10 - q^8| + 5|q^10 - q^12| = 75/4096, and the eigenvalue side is the
discrete second difference checked against the hyperbolic closed form.

The oracle for the closed-form routes is the eigenvalue recurrence: U and
U' by the value/derivative recurrence, delta = U'/U, with the precision
raised to twice the width that resolves q^(2*depth) under O(depth)
eigenvalues.
"""

import math
import re
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgs.chebyshev import QParameter
from qgs.errors import ResourceLimitError
from qgs.estimates import (
    _SCREEN_EPS,
    GapEvaluation,
    _ExactCells,
    _FloatCells,
    _screen_cells,
    gap,
    gap_constant_scan,
    hs_certificate,
    hs_coefficient,
    regime_classify,
)
from qgs.precision import set_precision_bits
from qgs.spectrum import spectral_data


def hyperbolic_eigenvalue(q, alpha):
    if alpha == 0:
        return mpmath.mpf(0)
    with mpmath.workprec(192):
        s = mpmath.log(1 / mpmath.mpf(q))
        return ((alpha + 1) * mpmath.coth((alpha + 1) * s) - mpmath.coth(s)) / (
            2 * mpmath.sinh(s)
        )


def delta_table(nq, top):
    """Eigenvalues for labels 0..top in the arithmetic of nq."""
    one = nq ** 0
    zero = 0 * one
    u_prev, u = zero, one
    du_prev, du = zero, zero
    out = []
    for _ in range(top + 1):
        out.append(du / u)
        u_prev, u, du_prev, du = u, nq * u - u_prev, du, u + nq * du - du_prev
    return out


def oracle_gap(q, alpha, beta, gamma):
    """(lhs, rhs, ratio) from the recurrence: exact for Fraction q, else
    mpf at twice max(128, 2*depth*log2(1/q) + 64) bits.

    Where the four labels cancel in pairs (gamma = 0 or alpha + gamma =
    beta) lhs is 0 by symmetry; the recurrence leaves rounding noise there,
    so the oracle returns the exact 0.
    """
    top = max(alpha, beta) + abs(gamma)
    bits = 2 * max(128, int(2 * (top + 1) * math.log2(1 / float(q))) + 64)
    with mpmath.workprec(bits):
        if not isinstance(q, Fraction):
            q = mpmath.mpf(q)
        return oracle_cell(q, delta_table(q + 1 / q, top), alpha, beta, gamma)


def oracle_cell(q, d, alpha, beta, gamma):
    """(lhs, rhs, ratio) at one cell from the eigenvalue table d."""
    lhs = abs(d[alpha + gamma] - d[alpha] - d[beta] + d[beta - gamma])
    if gamma == 0 or alpha + gamma == beta:
        lhs = 0 * lhs
    rhs = (
        abs(gamma) * abs(q ** (2 * alpha + 2 * gamma) - q ** (2 * beta + 2 * gamma))
        + beta * abs(q ** (2 * beta) - q ** (2 * beta - 2 * gamma))
        + alpha * abs(q ** (2 * alpha) - q ** (2 * alpha + 2 * gamma))
    )
    ratio = lhs / rhs if rhs else 0 * lhs
    return lhs, rhs, ratio


def valid_cell(alpha, beta, gamma):
    return alpha + gamma >= 0 and beta - gamma >= 0 and abs(gamma) <= max(alpha, beta)


@settings(max_examples=80, deadline=None)
@given(
    q=st.floats(min_value=0.05, max_value=0.99),
    alpha=st.integers(min_value=0, max_value=500),
    beta=st.integers(min_value=0, max_value=500),
    gamma=st.integers(min_value=-5, max_value=5),
)
def test_gap_float_closed_form_matches_recurrence(q, alpha, beta, gamma):
    assume(valid_cell(alpha, beta, gamma))
    ev = gap(QParameter(q, 2), alpha, beta, gamma)
    want = oracle_gap(q, alpha, beta, gamma)
    assert isinstance(ev.ratio, float)
    for got, ref in zip((ev.lhs, ev.rhs, ev.ratio), want):
        assert abs(got - ref) <= max(1e-13 * abs(ref), 1e-300)


@settings(max_examples=80, deadline=None)
@given(
    q=st.floats(min_value=0.9, max_value=0.99),
    alpha=st.integers(min_value=0, max_value=120),
    shift=st.integers(min_value=-10, max_value=10),
    gamma=st.integers(min_value=-5, max_value=5),
)
def test_gap_float_near_one_within_scan_window(q, alpha, shift, gamma):
    # q -> 1 with |alpha - beta| <= 10 is where the four-term sum cancels most
    beta = max(0, alpha + shift)
    assume(valid_cell(alpha, beta, gamma))
    ev = gap(QParameter(q, 2), alpha, beta, gamma)
    ref = oracle_gap(q, alpha, beta, gamma)[2]
    assert abs(ev.ratio - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("bits", [128, 256])
def test_gap_decimal_q_near_one_takes_log_q_from_the_decimal(bits):
    # log(float(q)) would put 2^-53/(1-q), about 1e-7, into 1 - q^2
    set_precision_bits(bits)
    try:
        got = gap(QParameter("0.999999999", 2), 10, 15, 2).ratio
    finally:
        set_precision_bits(None)
    exact = gap(QParameter(Fraction(999999999, 10**9), 2), 10, 15, 2).ratio
    assert abs(got / exact - 1) <= 1e-14


# the eight q of the table accuracy checks, from tiny to within 1e-9 of 1
TABLE_QS = [1e-150, 0.05, 0.3, 0.5, 0.9, 0.99, 0.99999, 1 - 1e-9]


def fixed_point_kt(lq, top, bits=300):
    """kt[1..top] of the gap tables at u = exp(2 lq), from u at `bits` bits and
    B(n) = n(1-u)(1+u^(n+1)) - 2u(1-u^n) in exact integers: (num, den) pairs."""
    with mpmath.workprec(bits + 64):
        u = int(mpmath.exp(2 * mpmath.mpf(lq)) * 2**bits)
    one = 1 << bits
    w = [one]  # u^k in units of 2^-bits
    for _ in range(top + 2):
        w.append(w[-1] * u >> bits)
    om = [one - x for x in w]
    return [
        (om[1] * (n * om[1] * (one + w[n + 1]) - 2 * u * om[n]), om[n] * om[n + 1] * om[n + 2])
        for n in range(1, top + 1)
    ]


@pytest.mark.parametrize("q", TABLE_QS)
def test_float_tables_match_a_300_bit_evaluation(q):
    # the positive-term recurrence for S(n) against the closed form of B(n),
    # which cancels but not at 300 bits, on every label the scans can read
    lq = math.log(q)
    kt = _FloatCells(q, 19999, lq).kt
    for n, (num, den) in enumerate(fixed_point_kt(lq, 19999), start=1):
        want = num / den
        assert abs(kt[n] - want) <= 1e-15 * want


@pytest.mark.parametrize("q", TABLE_QS)
def test_float_tables_match_the_fsum_sum(q):
    # B(n) = (1-u) sum_i (1-u^i)(1-u^(n+1-i)), summed term by term
    lq = math.log(q)
    cells = _FloatCells(q, 1000, lq)
    om = cells.om
    for n in [*range(1, 301), 1000]:
        b = om[1] * math.fsum(om[i] * om[n + 1 - i] for i in range(1, n + 1))
        want = om[1] * b / (om[n] * om[n + 1] * om[n + 2])
        assert abs(cells.kt[n] - want) <= 1e-15 * want


@pytest.mark.parametrize("q", [Fraction(4, 11), Fraction(99, 100)])
def test_gap_rational_equals_the_scan_cells(q):
    # gap() takes lhs from four exact eigenvalues, the scan's _ExactCells from
    # integer pair differences of r_k
    cells, param = _ExactCells(q, 35), QParameter(q, 2)
    cn, cd = cells.c
    for a in range(30):
        for b in range(30):
            for g in range(max(-5, -a), min(5, b) + 1):
                ev = gap(param, a, b, g)
                num, den = cells._lhs(a, b, g)
                assert ev.lhs == Fraction(cn * abs(num), cd * den)
                assert ev.rhs == Fraction(*cells._rhs(a, b, g))
                assert float(ev.ratio) == cells.ratio(a, b, g)
                assert type(ev.ratio) is Fraction


@settings(max_examples=40, deadline=None)
@given(
    q=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40),
    alpha=st.integers(min_value=0, max_value=120),
    beta=st.integers(min_value=0, max_value=120),
    gamma=st.integers(min_value=-5, max_value=5),
)
def test_gap_rational_closed_form_equals_recurrence(q, alpha, beta, gamma):
    assume(valid_cell(alpha, beta, gamma))
    ev = gap(QParameter(q, 2), alpha, beta, gamma)
    assert (ev.lhs, ev.rhs, ev.ratio) == oracle_gap(q, alpha, beta, gamma)


@settings(max_examples=25, deadline=None)
@given(
    q=st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40),
    alpha_max=st.integers(min_value=10, max_value=40),
    gamma_max=st.integers(min_value=0, max_value=4),
)
def test_gap_scan_rational_equals_exact_oracle_scan(q, alpha_max, gamma_max):
    # every cell as float(lhs/rhs) of the exact recurrence cell, so the sup,
    # its first cell and both window sups must agree to the last bit
    d = delta_table(q + 1 / q, alpha_max + gamma_max)
    ratios = {}
    for a in range(alpha_max + 1):
        for b in range(max(0, a - 2 * gamma_max), min(alpha_max, a + 2 * gamma_max) + 1):
            for g in range(-gamma_max, gamma_max + 1):
                if valid_cell(a, b, g):
                    ratios[a, b, g] = float(oracle_cell(q, d, a, b, g)[2])
    sup = max(ratios.values())
    low = max((r for (a, _, _), r in ratios.items() if alpha_max // 4 <= a < alpha_max // 2), default=0.0)
    high = max((r for (a, _, _), r in ratios.items() if a >= alpha_max // 2), default=0.0)
    scan = gap_constant_scan(QParameter(q, 2), alpha_max, gamma_max)
    assert scan.sup_ratio == sup
    assert scan.argmax == (next(c for c, r in ratios.items() if r == sup) if sup else (0, 0, 0))
    assert (scan.window_low_sup, scan.window_high_sup) == (low, high)
    assert scan.stable == (abs(high - low) <= 0.1 * max(high, low))


def scan_cells(alpha_max, gamma_max):
    """The cells of a gap scan, in its order."""
    for a in range(alpha_max + 1):
        for b in range(max(0, a - 2 * gamma_max), min(alpha_max, a + 2 * gamma_max) + 1):
            for g in range(max(-gamma_max, -a), min(gamma_max, b) + 1):
                yield a, b, g


def exhaustive_exact_scan(q, alpha_max, gamma_max):
    """(sup_ratio, argmax, window_low_sup, window_high_sup, stable) with every
    cell evaluated exactly, in the scan's order: the reference for the
    screened scan at rational q, down to the cell a ValueError names."""
    ratio_at = _ExactCells(q, alpha_max + gamma_max).ratio
    sup, argmax, low, high = 0.0, (0, 0, 0), 0.0, 0.0
    for a, b, g in scan_cells(alpha_max, gamma_max):
        ratio = ratio_at(a, b, g)
        if ratio > sup:
            sup, argmax = ratio, (a, b, g)
        if alpha_max // 4 <= a < alpha_max // 2:
            low = max(low, ratio)
        if a >= alpha_max // 2:
            high = max(high, ratio)
    return sup, argmax, low, high, abs(high - low) <= 0.1 * max(high, low)


def scan_record(scan):
    return (scan.sup_ratio, scan.argmax, scan.window_low_sup, scan.window_high_sup, scan.stable)


def fraction_in(r_max):
    return st.integers(2, r_max).flatmap(
        lambda r: st.integers(1, r - 1).map(lambda p: Fraction(p, r))
    )


# rational q of every size up to r = 10^6, q within 1e-3 of 1 (to 1 - 1e-6),
# and q <= 1e-6 (to 1e-12)
screened_q = st.one_of(
    fraction_in(10**6),
    st.integers(1000, 10**6).flatmap(
        lambda r: st.integers(1, r // 1000).map(lambda k: Fraction(r - k, r))
    ),
    st.integers(1000, 10**6).map(lambda r: Fraction(r - 1, r)),
    st.integers(1, 1000).flatmap(
        lambda p: st.integers(10**6 * p, 10**12).map(lambda r: Fraction(p, r))
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    q=screened_q,
    alpha_max=st.integers(min_value=10, max_value=80),
    gamma_max=st.integers(min_value=0, max_value=4),
)
@example(q=Fraction(10**6 - 1, 10**6), alpha_max=40, gamma_max=4)
@example(q=Fraction(1, 10**6), alpha_max=40, gamma_max=4)
def test_gap_scan_screen_error_far_below_its_margin(q, alpha_max, gamma_max):
    # the screen skips a cell when its float ratio times 1 + _SCREEN_EPS is
    # below the sup the cell must beat: 2^-40 leaves 1000x headroom.  Near
    # q = 1 this needs log q from the fraction: from log(float(q)) the error
    # is about 2^-53 / (1 - q), 3e-11 at q = 1 - 1e-6
    top = alpha_max + gamma_max
    exact, screen = _ExactCells(q, top), _screen_cells(q, top)
    for a, b, g in scan_cells(alpha_max, gamma_max):
        want = exact.ratio(a, b, g)
        got = screen._ratio(*screen.sides(a, b, g))
        assert abs(got - want) <= 2.0**-40 * want
        assert screen.bound(a, b, g) >= want
    assert 2.0**-40 * 1000 < _SCREEN_EPS


@settings(max_examples=30, deadline=None)
@given(
    q=st.one_of(fraction_in(10**4), st.integers(2, 10**9).map(lambda r: Fraction(r - 1, r))),
    alpha_max=st.integers(min_value=10, max_value=60),
    gamma_max=st.integers(min_value=0, max_value=4),
)
def test_gap_scan_rational_equals_exhaustive_exact_scan(q, alpha_max, gamma_max):
    scan = gap_constant_scan(QParameter(q, 2), alpha_max, gamma_max)
    assert scan_record(scan) == exhaustive_exact_scan(q, alpha_max, gamma_max)


@pytest.mark.parametrize("q", [Fraction(2**60, 2**60 + 1), Fraction(1, 10**308)])
def test_gap_scan_unscreened_q_equals_exhaustive_exact_scan(q):
    # float(q) is 1.0 and subnormal (QParameter refuses q below 1/DBL_MAX, so
    # float(q) is never 0.0): there is no screen, and every cell is exact
    assert float(q) in (1.0, 1e-308) and _screen_cells(q, 14) is None
    param = QParameter(q, 2)
    try:
        want = exhaustive_exact_scan(q, 10, 4)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            gap_constant_scan(param, 10, 4)
    else:
        assert scan_record(gap_constant_scan(param, 10, 4)) == want


def test_gap_float_outside_double_range():
    # both sides lie far below the float range and the ratio does not
    q = 1e-3
    ev = gap(QParameter(q, 2), 200, 203, 2)
    want = oracle_gap(q, 200, 203, 2)
    assert max(want[:2]) < mpmath.mpf("1e-1000")
    for got, ref in zip((ev.lhs, ev.rhs, ev.ratio), want):
        assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("q", [1e-30, 1e-100, 1e-160])
def test_gap_scan_float_tiny_q_matches_exact(q):
    # powers of q underflow the float range two labels apart
    approx = gap_constant_scan(QParameter(q, 2), 12, 2)
    exact = gap_constant_scan(QParameter(Fraction(q), 2), 12, 2)
    assert approx.argmax == exact.argmax
    for field in ("sup_ratio", "window_low_sup", "window_high_sup"):
        assert getattr(approx, field) == pytest.approx(getattr(exact, field), rel=1e-13)


@pytest.mark.parametrize("q", [1e-70, Fraction(1, 10**70)])
def test_gap_ratio_beyond_double_range(q):
    # the ratio at (0, 8, 4) is near q^-5/6: gap reports it, a scan refuses it
    param = QParameter(q, 2)
    assert gap(param, 0, 8, 4).ratio > 1.7e308
    with pytest.raises(ValueError, match=r"\(0, 8, 4\)"):
        gap_constant_scan(param, 10, 4)


def test_gap_zero_shift_vanishes():
    p = QParameter(Fraction(1, 2), 2)
    ev = gap(p, 7, 4, 0)
    assert ev.lhs == 0
    assert ev.rhs == 0
    assert ev.ratio == 0


def test_gap_spot_values():
    p = QParameter(Fraction(1, 2), 2)
    ev = gap(p, 5, 5, 1)
    assert isinstance(ev.lhs, Fraction)
    assert ev.rhs == Fraction(75, 4096)
    want = abs(
        hyperbolic_eigenvalue(0.5, 6)
        - 2 * hyperbolic_eigenvalue(0.5, 5)
        + hyperbolic_eigenvalue(0.5, 4)
    )
    assert abs(float(ev.lhs) - float(want)) <= 1e-9
    assert float(ev.lhs) == pytest.approx(0.003180, abs=1e-6)
    assert float(ev.ratio) == pytest.approx(0.174, abs=2e-3)


def test_gap_symmetric_case_is_second_difference():
    from qgs.spectrum import eigenvalue

    p = QParameter(Fraction(2, 5), 2)
    for a in (3, 6, 11):
        for g in (1, 2, 3):
            ev = gap(p, a, a, g)
            second = abs(
                eigenvalue(p, a + g) + eigenvalue(p, a - g) - 2 * eigenvalue(p, a)
            )
            assert ev.lhs == second


def test_gap_swap_antisymmetry_exact():
    # (alpha, beta, gamma) -> (beta, alpha, -gamma) maps lhs to itself
    p = QParameter(Fraction(1, 2), 2)
    for a in range(20):
        for b in range(20):
            for g in range(-5, 6):
                if a + g < 0 or b - g < 0 or abs(g) > max(a, b):
                    continue
                if b + (-g) < 0 or a - (-g) < 0 or abs(g) > max(b, a):
                    continue
                assert gap(p, a, b, g).lhs == gap(p, b, a, -g).lhs


def test_gap_domain_validation():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        gap(p, 1, 5, -2)  # alpha + gamma < 0
    with pytest.raises(ValueError):
        gap(p, 5, 1, 2)  # beta - gamma < 0
    with pytest.raises(ValueError):
        gap(p, 2, 2, 3)  # |gamma| > max(alpha, beta), so beta - gamma < 0
    with pytest.raises(ValueError, match="labels must be >= 0"):
        gap(p, -1, 2, 0)


def test_gap_tables_have_cost_ceilings():
    # at q = p/r one cell sums four exact eigenvalues of about
    # (label + 1) log2(r^2) bits each; at decimal q it builds float tables
    # for every label up to max(alpha, beta) + |gamma|, O(1) a label
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="bits"):
        gap(QParameter(Fraction(1, 10**300), 2), 400, 395, 3)  # 3.2e6 bits: 10 s on 2-vCPU x86_64
    assert time.perf_counter() - start < 0.1
    assert gap(QParameter(Fraction(4, 11), 2), 10000, 10000, 0).ratio == 0  # 2.8e5 bits
    # 12,000 labels near q = 1 as far from it
    for q in (0.99999, 0.5):
        start = time.perf_counter()
        assert gap(QParameter(q, 2), 6000, 6000, 0).ratio == 0
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ResourceLimitError, match="labels"):
        gap(QParameter(0.5, 2), 20000, 0, 0)


@pytest.mark.parametrize("q", [1, "1.0"])
def test_gap_at_q1_in_closed_form(q):
    # delta_a = a(a+2)/6 at q = 1, so the four-term sum is g(a-b+g)/3 exactly
    p = QParameter(q, 2)
    delta = [d.delta for d in spectral_data(QParameter(1, 2), 35)]
    for a in range(31):
        for b in range(31):
            for g in range(max(-5, -a), min(5, b) + 1):
                ev = gap(p, a, b, g)
                lhs = Fraction(abs(g * (a - b + g)), 3)
                assert ev.lhs == lhs == abs(delta[a + g] - delta[a] - delta[b] + delta[b - g])
                assert type(ev.lhs) is Fraction
                assert ev.rhs == 0
                assert ev.ratio == (math.inf if lhs else 0)


def test_gap_degenerate_regime_ratio_is_inf():
    ev = gap(QParameter(1, 2), 5, 7, 1)
    assert ev.rhs == 0
    assert float(ev.lhs) > 0
    assert ev.ratio == math.inf


def test_gap_scan_gamma_zero_grid():
    scan = gap_constant_scan(QParameter(0.5, 2), 20, 0)
    assert scan.sup_ratio == 0
    assert scan.stable


def test_gap_scan_moderate_grid():
    scan = gap_constant_scan(QParameter(0.5, 2), 60, 3)
    assert 0 < scan.sup_ratio < 100
    a, b, g = scan.argmax
    assert 0 <= a <= 60 and 0 <= b <= 60 and abs(g) <= 3
    assert scan.window_low_sup > 0
    assert scan.window_high_sup > 0
    assert scan.stable


def test_gap_scan_rational_matches_float():
    exact = gap_constant_scan(QParameter(Fraction(3, 10), 2), 40, 2)
    approx = gap_constant_scan(QParameter(0.3, 2), 40, 2)
    assert exact.sup_ratio == pytest.approx(approx.sup_ratio, rel=1e-9)
    assert exact.argmax == approx.argmax


def test_gap_scan_validation():
    with pytest.raises(ValueError):
        gap_constant_scan(QParameter(0.5, 2), 5, 2)


def test_hs_coefficient_spots():
    from qgs.spectrum import eigenvalue

    p = QParameter(0.5, 2)
    rec = hs_coefficient(p, 5, 5, 1, 0)
    assert float(rec.gap_coefficient) == pytest.approx(0.003180, abs=1e-6)
    step = float(eigenvalue(p, 5) - eigenvalue(p, 4))
    assert float(rec.step_coefficient) == pytest.approx(step, rel=1e-12)
    assert float(rec.damping) == 1
    zero = hs_coefficient(p, 5, 5, 0, 1.0)
    assert zero.gap_coefficient == 0
    assert zero.step_coefficient == 0
    damped = hs_coefficient(p, 5, 5, 1, 50.0)
    assert float(damped.damping) < 1e-20
    with pytest.raises(ValueError):
        hs_coefficient(p, 5, 5, 1, -0.5)
    for t in ("nan", "inf"):
        with pytest.raises(ValueError):
            hs_coefficient(p, 5, 5, 1, t)


def test_hs_certificate_regimes():
    kac = QParameter.kac(3)
    assert hs_certificate(kac, 0.1, 200).verdict == "finite"
    assert hs_certificate(kac, 0, 200).verdict == "divergent"
    strict = QParameter(0.25, 3)
    assert hs_certificate(strict, 0, 200).verdict == "finite"


def test_hs_certificate_kac_terms_plateau():
    cert = hs_certificate(QParameter.kac(3), 0, 200)
    tail = cert.terms[-40:]
    assert min(tail) > 0.1 * max(cert.terms[1:11])


def test_hs_certificate_agrees_with_regime_classify():
    q0 = float(QParameter.kac(3).q)
    for q in (q0 - 0.1, None, 0.25):
        param = QParameter.kac(3) if q is None else QParameter(q, 3)
        flags = regime_classify(param)
        cert = hs_certificate(param, 0, 200)
        assert flags.ghs == (cert.verdict == "finite")


def test_hs_certificate_monotone_in_t():
    p = QParameter.kac(3)
    c0 = hs_certificate(p, 0, 60)
    c1 = hs_certificate(p, 0.2, 60)
    c2 = hs_certificate(p, 0.5, 60)
    for lo, hi in ((c1, c0), (c2, c1)):
        for a in range(61):
            assert lo.terms[a] <= hi.terms[a] * (1 + 1e-12)


def test_hs_certificate_term_shapes():
    cert = hs_certificate(QParameter(0.25, 3), 0.3, 40)
    assert len(cert.terms) == 41
    assert len(cert.compressed_terms) == 41
    assert len(cert.partial_sums) == 41
    for exact, compressed in zip(cert.terms, cert.compressed_terms):
        assert compressed <= exact * (1 + 1e-12)
    for x, y in zip(cert.partial_sums, cert.partial_sums[1:]):
        assert y >= x
    assert cert.partial_sums[0] == cert.terms[0]


def test_hs_certificate_margin_override():
    cert = hs_certificate(QParameter.kac(3), 0.1, 200, margin=0.2)
    assert cert.verdict == "inconclusive"


def test_hs_certificate_validation():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        hs_certificate(p, 0, 10)
    with pytest.raises(ValueError):
        hs_certificate(p, -0.5, 40)
    for t in ("nan", "inf", float("nan")):
        with pytest.raises(ValueError):
            hs_certificate(p, t, 40)


def test_regime_classify_flags():
    kac3 = regime_classify(QParameter.kac(3))
    assert kac3.kac is True
    assert kac3.ighs is True
    assert kac3.ghs is False
    strict = regime_classify(QParameter(0.25, 3))
    assert strict.kac is False
    assert strict.ghs is True
    n2 = regime_classify(QParameter(1, 2))
    assert n2.kac is True
    assert n2.ghs is False
