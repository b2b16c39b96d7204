"""Spectral data of the central Markov semigroup.

The eigenvalue oracles used here share no code with the library's closed
form: the hyperbolic closed form ((a+1)coth((a+1)s) - coth(s)) / (2 sinh s)
with s = log(1/q), computed with mpmath at 192 bits, and U'/U from the
value/derivative recurrence of chebyshev, exact at rational q and at four
times the working width at decimal q.
"""

import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _pairs, build_poly, poly_value_and_derivative, to_mpf
from qgs import spectrum
from qgs.chebyshev import QParameter, _context, poly_value, q_number
from qgs.estimates import hs_coefficient
from qgs.errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from qgs.fusion import MAX_LABELS, dims
from qgs.precision import set_precision_bits
from qgs.spectrum import (
    AmenabilityReport,
    ResolventCoeff,
    amenability_criterion,
    cesaro_sum,
    dirichlet_form,
    eigenvalue,
    gap_limit,
    multiplier,
    resolvent_coeff,
    semigroup_coeff,
    semigroup_rate,
    spectral_data,
    spectral_rows,
    spectral_stream,
)


def hyperbolic_eigenvalue(q, alpha):
    """Independent closed-form oracle, valid for 0 < q < 1."""
    with mpmath.workprec(192):
        s = mpmath.log(1 / mpmath.mpf(q))
        if alpha == 0:
            return mpmath.mpf(0)
        return ((alpha + 1) * mpmath.coth((alpha + 1) * s) - mpmath.coth(s)) / (
            2 * mpmath.sinh(s)
        )


def test_eigenvalue_exact_spots():
    p = QParameter(Fraction(1, 2), 2)
    assert eigenvalue(p, 0) == 0
    assert eigenvalue(p, 1) == Fraction(2, 5)
    assert eigenvalue(p, 2) == Fraction(20, 21)
    assert float(eigenvalue(p, 2)) == pytest.approx(0.952381, abs=1e-6)


def test_eigenvalue_degenerate_regime_exact():
    p = QParameter(1, 2)
    for a in range(61):
        assert eigenvalue(p, a) == Fraction(a * (a + 2), 6)


def test_eigenvalue_matches_hyperbolic_oracle():
    for q in (0.2, 0.5, 0.8):
        p = QParameter(q, 2)
        qm = to_mpf(p.q)
        for a in (1, 2, 3, 5, 10, 50, 200, 500):
            got = float(eigenvalue(p, a))
            want = float(hyperbolic_eigenvalue(qm, a))
            assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize(
    "q",
    [Fraction(1, 2), Fraction(4, 11), Fraction(10, 11), Fraction(99, 100), Fraction(1, 1000),
     Fraction(1, 10**150), Fraction(1)],
)
def test_eigenvalue_equals_the_recurrence_exactly(q):
    # U'/U from one pass of the recurrence, which poly_value_and_derivative
    # indexes into; at 1/10^150 its Fraction steps take 13 s to label 300 (2-vCPU x86_64)
    p = QParameter(q, 2)
    top = 100 if q.denominator > 10**6 else 300
    pairs = list(islice(_pairs(p.nq), top + 1))
    assert pairs[-1] == poly_value_and_derivative(top, p.nq)
    want = [du / u for u, du in pairs]
    assert [d.delta for d in islice(spectral_stream(p), top + 1)] == want
    assert [eigenvalue(p, a) for a in range(top + 1)] == want
    assert all(type(d) is Fraction for d in want)


def recurrence_eigenvalue(p, alpha, bits):
    """U'/U at the value of p.q, by the recurrence at the given width."""
    with mpmath.workprec(bits):
        q = p.q if isinstance(p.q, Fraction) else to_mpf(p.q)
        u, du = poly_value_and_derivative(alpha, q + 1 / q)
        return du / u


@settings(max_examples=60, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=1 - 1e-9), alpha=st.integers(0, 400))
@example(q=0.999999999, alpha=1)
@example(q=1 - 1e-9, alpha=0)
def test_decimal_eigenvalue_against_the_recurrence_at_four_times_the_bits(q, alpha):
    # near q = 1 the closed form's two terms cancel to about (1-q^2)^3 of
    # their size; a guard of 2 log2(1/(1-q^2)) bits leaves 1.9e-35 at
    # q = 0.999999999, alpha = 1
    p = QParameter(q, 2)
    want = recurrence_eigenvalue(p, alpha, 512)
    got = (eigenvalue(p, alpha), list(islice(spectral_stream(p), alpha + 1))[-1].delta)
    for d in got:
        assert isinstance(d, Decimal)
        with mpmath.workprec(512):
            assert abs(to_mpf(d) - want) <= 2.0**-120 * want


def test_decimal_eigenvalue_is_correctly_rounded_near_one():
    p = QParameter("0.999999999", 2)
    want = recurrence_eigenvalue(p, 1, 512)
    with mpmath.workprec(128):
        assert eigenvalue(p, 1) == +want


def test_decimal_q_read_wider_than_the_working_precision():
    # 1 - q^2 is taken from q's exact binary value, not from q*q at 128 bits
    set_precision_bits(256)
    try:
        p = QParameter("0." + "9" * 60, 2)
    finally:
        set_precision_bits(None)
    assert eigenvalue(p, 3) == 2.5  # 3 * 5 / 6 up to O((1-q)^2)
    with mpmath.workprec(128):
        want = [0, 0.5, mpmath.mpf(4) / 3, 2.5]
        assert [to_mpf(d.delta) for d in islice(spectral_stream(p), 4)] == want


@pytest.mark.parametrize("q", ["0.3"])  # q = 1.0 is held as q = 1: see below
def test_decimal_eigenvalue_is_a_decimal_at_the_working_precision(q):
    set_precision_bits(192)
    try:
        p = QParameter(q, 2)
        values = (eigenvalue(p, 5), list(islice(spectral_stream(p), 6))[-1].delta)
    finally:
        set_precision_bits(None)
    for d in values:
        assert isinstance(d, Decimal)
        # the digits of 192 bits: not the caller's 28, nor the 41 of 128 bits
        assert len(d.as_tuple().digits) == _context(192).prec == 60
    assert type(eigenvalue(QParameter(1, 2), 5)) is Fraction


@pytest.mark.parametrize("bits", [53, 128, 192])
def test_public_values_at_q_one_point_zero_are_the_exact_ones(bits):
    # a decimal q of exactly 1 is held as q = 1, at every width
    set_precision_bits(bits)
    try:
        p = QParameter("1.0", 2)
        rows = spectral_rows(p, 300)
        stream = [d.delta for d in islice(spectral_stream(p), 301)]
        eigenvalues = [eigenvalue(p, a) for a in range(301)]
    finally:
        set_precision_bits(None)
    assert p == QParameter(1, 2) and type(p.q) is Fraction
    deltas = [Fraction(a * (a + 2), 6) for a in range(301)]
    assert [r.delta for r in rows] == stream == eigenvalues == deltas
    assert [r.gap for r in rows] == [Fraction(2 * a + 1, 6) if a else 0 for a in range(301)]
    assert [r.qdim for r in rows] == list(range(1, 302))
    assert all(type(x) is Fraction for r in rows for x in (r.qdim, r.delta, r.gap))


def test_exact_eigenvalue_ceiling():
    # one Fraction of about (alpha+1) log2(r^2) bits: 4e7 bits took 13.7 s (2-vCPU x86_64)
    p = QParameter(Fraction(1, 10**307), 2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="up to label 19999 take about 40800000 bits"):
        eigenvalue(p, 19999)
    assert time.perf_counter() - start < 0.1
    half = Fraction(1, 2)
    assert eigenvalue(QParameter(half, 2), 19999) == closed_form_eigenvalue(half, 19999)


def test_eigenvalue_strictly_increasing():
    p = QParameter(0.5, 2)
    vals = [float(eigenvalue(p, a)) for a in range(101)]
    for x, y in zip(vals, vals[1:]):
        assert y > x


def test_gap_limit_values():
    assert float(gap_limit(QParameter(0.5, 2))) == pytest.approx(2 / 3, rel=1e-12)
    assert float(gap_limit(QParameter(0.2, 2))) == pytest.approx(1 / 4.8, rel=1e-12)
    with pytest.raises(DegenerateRegimeError):
        gap_limit(QParameter(1, 2))


def test_gap_limit_reached_by_eigenvalue_gaps():
    p = QParameter(0.5, 2)
    gap = eigenvalue(p, 1000) - eigenvalue(p, 999)
    assert abs(float(gap - gap_limit(p))) <= 1e-8


def test_semigroup_coeff_endpoint():
    p = QParameter(0.5, 2)
    for a in (0, 1, 4, 9):
        assert float(semigroup_coeff(p, a, 1)) == pytest.approx(1, abs=1e-15)


def test_semigroup_coeff_spots():
    p = QParameter(0.5, 2)
    assert float(semigroup_coeff(p, 1, 0)) == pytest.approx(0.512, rel=1e-12)
    assert float(semigroup_coeff(p, 1, 0.5)) == pytest.approx(0.610940, abs=1e-5)


def test_semigroup_coeff_at_the_label_ceiling():
    # MAX_LABELS itself is refused (tests/test_input_checks.py); one below runs
    value = semigroup_coeff(QParameter(0.5, 2), MAX_LABELS - 1, 0.5)
    assert 0 < value < 1


def test_semigroup_coeff_range_and_validation():
    p = QParameter(0.5, 2)
    for a in range(0, 21, 4):
        for t in (-0.9, -0.5, 0.0, 0.3, 0.7, 1.0):
            c = float(semigroup_coeff(p, a, t))
            assert 0 < c <= 1 + 1e-15
    with pytest.raises(ValueError):
        semigroup_coeff(p, 1, -1)
    with pytest.raises(DegenerateRegimeError):
        semigroup_coeff(QParameter(1, 2), 1, 0.5)


def test_semigroup_rate_matches_finite_difference():
    h = Fraction(1, 10**6)
    for q in (0.3, 0.5):
        p = QParameter(q, 2)
        for a in (1, 3, 8, 15, 29, 50):
            upper, lower = semigroup_coeff(p, a, 1 + h), semigroup_coeff(p, a, 1 - h)
            diff = (Fraction(upper) - Fraction(lower)) / (2 * h)
            rate = semigroup_rate(p, a)
            assert abs(float(diff - Fraction(rate))) <= 1e-6 * abs(float(rate))


def test_semigroup_rate_sign():
    # c_a(t) increases toward t = 1, so the rate is positive
    p = QParameter(0.5, 2)
    for a in range(1, 10):
        assert float(semigroup_rate(p, a)) > 0


def test_multiplier_spots():
    p = QParameter(0.5, 2)
    assert float(multiplier(p, 3, 0)) == 1
    assert float(multiplier(p, 0, 7.5)) == 1
    assert float(multiplier(p, 1, 2)) == pytest.approx(math.exp(-0.8), rel=1e-12)
    with pytest.raises(ValueError):
        multiplier(p, 1, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    t1=st.floats(min_value=0, max_value=3, allow_nan=False),
    t2=st.floats(min_value=0, max_value=3, allow_nan=False),
)
def test_multiplier_semigroup_law(t1, t2):
    p = QParameter(0.5, 2)
    lhs = float(multiplier(p, 2, t1)) * float(multiplier(p, 2, t2))
    rhs = float(multiplier(p, 2, t1 + t2))
    assert abs(lhs - rhs) <= 1e-14


def test_cesaro_constant_is_zero():
    assert cesaro_sum(lambda x: 1.0, 10) == 0


def test_cesaro_linear_gives_log_two():
    val = cesaro_sum(lambda x: x, 10 ** 5)
    assert abs(val - math.log(2)) <= 1e-5


def test_cesaro_exponential():
    val = cesaro_sum(lambda x: math.exp(2 * x), 10 ** 5)
    assert abs(val - 2 * math.log(2)) <= 1e-3


def test_cesaro_semigroup_origin():
    # P(x) = c_a(1 - x) has P'(0) = -c_a'(1)
    p = QParameter(0.5, 2)
    a = 3
    val = cesaro_sum(lambda x: float(semigroup_coeff(p, a, 1 - x)), 10 ** 5)
    target = -math.log(2) * float(semigroup_rate(p, a))
    assert abs(val - target) <= 1e-2


def test_dirichlet_form_spots():
    p = QParameter(0.5, 2)
    assert dirichlet_form(p, {}) == 0
    assert dirichlet_form(p, {(0, 1, 1): 1.0}) == 0
    assert float(dirichlet_form(p, {(1, 1, 1): 1.0})) == pytest.approx(0.4, rel=1e-12)
    two_terms = dirichlet_form(p, {(1, 1, 1): 1.0, (2, 1, 1): 2.0})
    assert float(two_terms) == pytest.approx(0.4 + 4 * 20 / 21, rel=1e-12)


def test_dirichlet_form_complex_and_scaling():
    p = QParameter(0.5, 2)
    vec = {(1, 1, 2): 1j, (2, 2, 3): 0.5 - 0.5j}
    base = float(dirichlet_form(p, vec))
    doubled = float(dirichlet_form(p, {k: 2 * v for k, v in vec.items()}))
    assert doubled == pytest.approx(4 * base, rel=1e-12)
    assert base > 0


def test_dirichlet_form_sums_each_label_once():
    # n_1 = 3 at N = 3; x = q + 1/q = 10/3, delta_1 = 1/x and delta_2 = 2x/(x^2 - 1)
    p = QParameter(Fraction(1, 3), 3)
    vec = {(1, i, j): Fraction(i, j) for i in range(1, 4) for j in range(1, 4)}
    weight = sum(v * v for v in vec.values())
    vec[(2, 1, 1)] = 2
    assert dirichlet_form(p, vec) == Fraction(3, 10) * weight + 4 * Fraction(60, 91)


def test_dirichlet_form_exact_total_ceiling():
    # the gcds of an exact total grow with the bits of all its eigenvalues:
    # labels 0..40 at q = 1/10^150 take about 1 s, labels 0..130 took 91 s (2-vCPU x86_64)
    p = QParameter(Fraction(1, 10**150), 2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="up to label 80 take about 3311037 bits"):
        dirichlet_form(p, {(a, 1, 1): 1 for a in range(81)})
    assert time.perf_counter() - start < 0.1
    # float amplitudes make a float total: only each eigenvalue is exact
    assert dirichlet_form(p, {(a, 1, 1): 1.0 for a in range(81)}) > 0
    want = sum(closed_form_eigenvalue(p.q, a) for a in range(41))
    assert dirichlet_form(p, {(a, 1, 1): 1 for a in range(41)}) == want


def test_dirichlet_form_index_validation():
    p = QParameter(0.5, 2)
    with pytest.raises(InvalidVectorError):
        dirichlet_form(p, {(1, 3, 1): 1.0})  # n_1 = 2, so i = 3 is out of range
    with pytest.raises(InvalidVectorError):
        dirichlet_form(p, {(2, 0, 1): 1.0})  # indices are 1-based


def test_resolvent_spots():
    p = QParameter(0.5, 2)
    r0 = resolvent_coeff(p, 0, 1.0)
    assert float(r0.resolvent) == 1
    assert float(r0.regularized) == 0
    r1 = resolvent_coeff(p, 1, 1.0)
    assert float(r1.resolvent) == pytest.approx(1 / 1.4, rel=1e-12)
    assert float(r1.regularized) == pytest.approx(0.4 / 1.4, rel=1e-12)


def test_resolvent_monotone_in_epsilon():
    p = QParameter(0.5, 2)
    target = float(eigenvalue(p, 5))
    vals = [float(resolvent_coeff(p, 5, eps).regularized) for eps in (1.0, 0.1, 0.01, 1e-4)]
    for x, y in zip(vals, vals[1:]):
        assert x < y <= target
    with pytest.raises(ValueError):
        resolvent_coeff(p, 1, 0)


def test_spectral_data_table():
    p = QParameter(0.5, 2)
    data = spectral_data(p, 10)
    table = dims(p, 10)
    assert [d.alpha for d in data] == list(range(11))
    for d in data:
        assert d.n == table.n[d.alpha]
        assert d.multiplicity == d.n ** 2
    assert sum(d.multiplicity for d in data) == sum(m ** 2 for m in table.n)
    deltas = [float(d.delta) for d in data]
    assert deltas[0] == 0
    assert all(y > x for x, y in zip(deltas, deltas[1:]))


def closed_form_eigenvalue(q, alpha):
    """delta_alpha = (alpha+1)L - C + r_alpha, exact for rational q < 1."""
    u = q * q
    big_l = q / (1 - u)
    big_c = q * (1 + u) / (1 - u) ** 2
    r = 2 * (alpha + 1) * q ** (2 * alpha + 3) / ((1 - u) * (1 - u ** (alpha + 1)))
    return (alpha + 1) * big_l - big_c + r


def test_spectral_stream_matches_table():
    # oracles that share no code with the stream: the closed form of delta
    # for q < 1, alpha(alpha+2)/6 at q = 1, and n = U_alpha(N) by coefficients
    cases = (
        (Fraction(1, 2), 2, closed_form_eigenvalue),
        (Fraction(2, 7), 3, closed_form_eigenvalue),
        (Fraction(1), 2, lambda q, a: Fraction(a * (a + 2), 6)),
    )
    for q, N, oracle in cases:
        stream = spectral_stream(QParameter(q, N))
        for alpha in range(61):
            d = next(stream)
            assert d.alpha == alpha
            assert d.delta == oracle(q, alpha)
            assert d.n == build_poly(alpha).value(N)
            assert d.multiplicity == d.n ** 2


def test_spectral_rows_shape():
    p = QParameter(0.5, 2)
    rows = spectral_rows(p, 6)
    assert len(rows) == 7
    assert rows[0].gap == 0
    for prev, row in zip(rows, rows[1:]):
        assert float(row.gap) == pytest.approx(float(row.delta) - float(prev.delta), rel=1e-9)
    table = dims(p, 6)
    for row in rows:
        assert row.n == table.n[row.alpha]
        assert float(row.qdim) == pytest.approx(float(table.qdim[row.alpha]), rel=1e-12)


def test_spectral_rows_exact_at_rational_q():
    p = QParameter(Fraction(1, 2), 2)
    rows = spectral_rows(p, 6)
    table = dims(p, 6)
    assert [row.qdim for row in rows] == list(table.qdim)
    assert [row.delta for row in rows] == [eigenvalue(p, a) for a in range(7)]
    assert all(isinstance(row.gap, Fraction) for row in rows[1:])


def stream_walk(param, n_max, warmup=1000, threshold=50.0):
    """The amenability probe as a walk along spectral_stream, drawing every
    label up to the last checkpoint: (ratios, envelope, liminf, verdict,
    labels drawn), the oracle of amenability_criterion."""
    checkpoints = [min(warmup, n_max)]
    while checkpoints[-1] * 2 <= n_max:
        checkpoints.append(checkpoints[-1] * 2)
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    stream, covered, ratios = spectral_stream(param), 0, []
    for cp in checkpoints:
        while covered < cp:
            current = next(stream)
            covered += current.multiplicity
        ratios.append(float(current.delta) / math.log(cp))
    envelope = [min(ratios[i:]) for i in range(len(ratios))]
    liminf = min(r for r, cp in zip(ratios, checkpoints) if 2 * cp >= n_max)
    verdict = "satisfied" if liminf > threshold else "not-satisfied"
    return tuple(ratios), tuple(envelope), liminf, verdict, current.alpha + 1


def _report(report):
    return report.ratios, report.envelope, report.liminf_estimate, report.verdict


# every admissible model (q + 1/q >= N) of N = 2..5 at these q
AMENABILITY_MODELS = [
    (N, q) for N in range(2, 6)
    for q in (Fraction(1, 3), Fraction(1, 5), Fraction(2, 11), "0.2", "0.1234", 1, "1.0")
    if float(Fraction(q)) + 1 / float(Fraction(q)) >= N
]


@pytest.mark.parametrize("N, q", AMENABILITY_MODELS)
@pytest.mark.parametrize("n_max", [10, 12345, 10**6, 3 * 10**8])
def test_amenability_equals_the_stream_walk(N, q, n_max):
    p = QParameter(q, N)
    want = stream_walk(p, n_max, warmup=100)[:4]
    assert _report(amenability_criterion(p, n_max, warmup=100)) == want


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("q", ["0.381966", "0.95", "0.999999", "0.05", "0.3", "1.0"])
def test_decimal_amenability_equals_the_stream_walk(bits, q):
    set_precision_bits(bits)
    try:
        for N, n_max in ((2, 10**12), (3 if q == "0.381966" else 2, 10**6)):
            p = QParameter(q, N)
            assert _report(amenability_criterion(p, n_max)) == stream_walk(p, n_max)[:4]
    finally:
        set_precision_bits(None)


def test_amenability_kac_model_fails():
    report = amenability_criterion(QParameter.kac(3), 32, warmup=4)
    assert report.satisfied is False
    assert report.verdict == "not-satisfied"
    assert 0 < report.liminf_estimate < 1


def test_amenability_degenerate_regime_satisfied():
    p = QParameter(1, 2)
    report = amenability_criterion(p, 10 ** 6)
    assert report.satisfied is True
    assert report.verdict == "satisfied"
    assert report.liminf_estimate > 50
    assert report.liminf_estimate < 400
    assert report.note == "numerical evidence"
    assert report.checkpoints[-1] == 10 ** 6
    env = report.envelope
    assert all(x <= y + 1e-12 for x, y in zip(env, env[1:]))


def test_amenability_kac_regime_plateaus():
    p = QParameter.kac(3)
    report = amenability_criterion(p, 10 ** 6)
    assert report.satisfied is False
    q0 = (3 - math.sqrt(5)) / 2
    plateau = 1 / (2 * math.sqrt(5) * math.log(1 / q0))
    assert abs(report.ratios[-1] - plateau) <= 0.1 * plateau


@pytest.mark.parametrize("N, n_max", [(2, 10), (2, 10**6), (3, 20000), (5, 12345)])
def test_labels_covering_counts_the_labels_amenability_draws(monkeypatch, N, n_max):
    # the labels covering n_max eigenvalues, drawn by the stream walk, end
    # at the last label whose eigenvalue amenability_criterion evaluates
    p = QParameter(Fraction(1, N + 1), N)
    evaluated, deltas = [], spectrum._deltas
    monkeypatch.setattr(spectrum, "_deltas", lambda q, a: evaluated.append(a) or deltas(q, a))
    amenability_criterion(p, n_max)
    monkeypatch.setattr(spectrum, "_deltas", deltas)
    assert max(evaluated) + 1 == stream_walk(p, n_max)[4]
    assert len(evaluated) == len(set(evaluated)) <= math.log2(n_max) + 2


def _unformed(*args):
    raise AssertionError("an eigenvalue was formed")


def test_labels_covering_ceiling(monkeypatch):
    # N = 2 covers (L + 1)(L + 2)(2L + 3)/6 eigenvalues with labels 0..L
    covered = 20000 * 20001 * 40001 // 6
    half = QParameter(Fraction(1, 2), 2)
    last = amenability_criterion(half, covered).ratios[-1]
    assert last == float(eigenvalue(half, 19999)) / math.log(covered)
    monkeypatch.setattr(spectrum, "eigenvalue", _unformed)
    monkeypatch.setattr(spectrum, "_deltas", _unformed)
    with pytest.raises(ResourceLimitError, match="over 20000 labels"):
        amenability_criterion(half, covered + 1)


@pytest.mark.parametrize(
    "q, n_max, message",
    [
        # about 66,900 labels at N = 2, refused after 20,000 integer steps (4 ms
        # on 2-vCPU x86_64); a walk of the stream formed 20,001 exact
        # eigenvalues first, over 120 s at q = 4/11
        (Fraction(1, 2), 10**14, "needs over 20000 labels"),
        (Fraction(4, 11), 10**14, "needs over 20000 labels"),
        # 22 checkpoint labels up to 3,106 of 997 bits a label each
        (Fraction(1, 10**150), 10**10, "up to label 3106 take about 17204232 bits"),
    ],
)
def test_amenability_refused_before_any_eigenvalue(monkeypatch, q, n_max, message):
    monkeypatch.setattr(spectrum, "eigenvalue", _unformed)
    monkeypatch.setattr(spectrum, "_deltas", _unformed)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=message):
        amenability_criterion(QParameter(q, 2), n_max)
    assert time.perf_counter() - start < 1  # also under tools/unreached.py's tracing


def test_amenability_validation():
    p = QParameter(Fraction(1, 3), 3)
    with pytest.raises(ValueError, match="n_max must be >= 10"):
        amenability_criterion(p, 5)
    with pytest.raises(TypeError):
        amenability_criterion(p, 1e6)
    with pytest.raises(ValueError, match="warmup must be >= 2"):
        amenability_criterion(p, 32, warmup=1)
    # a warm-up past n_max leaves the single checkpoint n_max
    assert amenability_criterion(p, 32, warmup=100).checkpoints == (32,)


def libmp_deltas(q, alpha, bits):
    """The mpf oracle of _deltas at decimal q < 1: the closed form on raw mpf
    values at the guard width 3 log2(1/(1-u)) + 16 over bits, q among them
    rounded once to that width, each eigenvalue rounded to bits."""
    from mpmath.libmp import fone, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_sub

    num, den = q.as_integer_ratio()
    wide = bits + 3 * ((den * den).bit_length() - (den * den - num * num).bit_length()) + 16
    with mpmath.workprec(wide):
        qm = to_mpf(q)
        u = qm * qm
        w, b, c = u ** (alpha + 1), (1 + u) / (1 - u), qm / (1 - u)
    u, w, b, c = u._mpf_, w._mpf_, b._mpf_, c._mpf_
    for a in itertools.count(alpha):
        z = mpf_div(mpf_add(fone, w, wide, "n"), mpf_sub(fone, w, wide, "n"), wide, "n")
        t = mpf_sub(mpf_mul_int(z, a + 1, wide, "n"), b, wide, "n")
        yield mpmath.mp.make_mpf(mpf_mul(c, t, bits, "n"))
        w = mpf_mul(w, u, wide, "n")


_NINES = "0." + "9" * 300  # within 1e-300 of 1, which 1,024 bits resolve


@pytest.mark.parametrize("bits", [53, 128, 256, 1024])
@pytest.mark.parametrize("q", ["1e-150", "0.05", "0.3", "0.5", "0.9", "0.999999999", _NINES, "1.0"])
def test_decimal_kernel_agrees_with_the_mpf_oracle(bits, q):
    if q == _NINES and bits < 1024:
        return  # q reads as 1 there, and is refused
    set_precision_bits(bits)
    try:
        p = QParameter(q, 2)
        for start in (0, 9000, 19800):
            got = list(islice(spectrum._deltas(p.q, start), 200))
            if q == "1.0":
                with mpmath.workprec(bits):
                    want = [mpmath.mpf(a * (a + 2)) / 6 for a in range(start, start + 200)]
            else:
                want = list(islice(libmp_deltas(p.q, start, bits), 200))
            with mpmath.workprec(bits + 64):
                for g, w in zip(got, want):
                    assert abs(mpmath.mpf(str(g)) - w) <= 2.0 ** (8 - bits) * abs(w)
            # the public value is the kernel's, and at q = 1.0 the exact a(a+2)/6
            assert eigenvalue(p, start + 7) == got[7]
    finally:
        set_precision_bits(None)


@pytest.mark.parametrize("q", [Fraction(10**30 - 1, 10**30), Fraction(10**12 - 1, 10**12),
                               "0.99999999999999999999", "0.999999999999"])
def test_gap_limit_near_one(q):
    # 1/sqrt(N_q^2 - 4) = q/(1 - q^2), as sqrt(N_q^2 - 4) = 1/q - q: from N_q
    # rounded at 128 bits, q = 1 - 10^-30 and 1 - 10^-20 read as q = 1, and
    # 1 - 10^-12 lost 15 digits
    p = QParameter(q, 2)
    want = Fraction(p.q) / (1 - Fraction(p.q) ** 2) if isinstance(q, Fraction) else None
    if want is not None:
        assert gap_limit(p) == want
    else:
        num, den = p.q.as_integer_ratio()
        want = Fraction(num * den, den * den - num * num)
        assert abs(Fraction(gap_limit(p)) - want) <= Fraction(1, 2**120) * want


@pytest.mark.parametrize("bits", [53, 128, 1024])
@pytest.mark.parametrize("q, N", [("0.3", 3), ("0.9", 2), ("0.999999", 2), (Fraction(2, 7), 3)])
def test_public_values_agree_with_the_mpf_oracle(bits, q, N):
    # every value is a Decimal at decimal q (and a transcendental one at any q),
    # within 2^-(bits-8) of the mpf formula at bits + 64 from q's exact value;
    # exact values at rational q stay Fractions
    set_precision_bits(bits)
    try:
        p = QParameter(q, N)
        got = {
            "gap_limit": gap_limit(p),
            "q_number": q_number(9, p),
            "q0": p.q0 if N > 2 else QParameter(Fraction(1, 3), 3).q0,
            "semigroup_coeff": semigroup_coeff(p, 7, Fraction(1, 2)),
            "semigroup_rate": semigroup_rate(p, 7),
            "multiplier": multiplier(p, 7, 0.75),
            "resolvent": resolvent_coeff(p, 7, 0.25).resolvent,
            "regularized": resolvent_coeff(p, 7, 0.25).regularized,
            "dirichlet_form": dirichlet_form(p, {(2, 1, 1): 0.5, (3, 2, 1): 1.5 + 1j}),
            "damping": hs_coefficient(p, 5, 7, 2, 0.75).damping,
            "step": hs_coefficient(p, 5, 7, 2, 0.75).step_coefficient,
        }
    finally:
        set_precision_bits(None)
    exact = {"gap_limit", "q_number", "step"} if isinstance(q, Fraction) else set()
    for name, value in got.items():
        assert type(value) is (Fraction if name in exact else Decimal), name
    with mpmath.workprec(bits + 64):
        qm = to_mpf(p.q)
        nq = qm + 1 / qm
        delta = [recurrence_eigenvalue(p, a, bits + 64) for a in range(8)]
        if isinstance(q, Fraction):
            delta = [to_mpf(d) for d in delta]
        qt = qm ** mpmath.mpf(0.5)
        want = {
            "gap_limit": 1 / mpmath.sqrt(nq * nq - 4),
            "q_number": poly_value(8, nq),
            "q0": (3 - mpmath.sqrt(5)) / 2,
            "semigroup_coeff": (poly_value(7, qt + 1 / qt) / poly_value(7, nq)) ** 3,
            "semigroup_rate": 3 * delta[7] * mpmath.log(qm) * (qm - 1 / qm),
            "multiplier": mpmath.exp(-0.75 * delta[7]),
            "resolvent": 1 / (1 + 0.25 * delta[7]),
            "regularized": delta[7] / (1 + 0.25 * delta[7]),
            "dirichlet_form": 0.25 * delta[2] + (1.5**2 + 1) * delta[3],
            "damping": mpmath.exp(-0.75 * delta[7]),
            "step": abs(delta[7] - delta[5]),
        }
        for name, value in got.items():
            assert abs(to_mpf(value) - want[name]) <= 2.0 ** (8 - bits) * abs(want[name]), name
