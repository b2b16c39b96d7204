"""Fusion data: decomposition lists, dimension tables, growth probes.

The N = 3 dimension sequence 1, 3, 8, 21, 55, 144, ... was derived by
running the integer recursion n_{a+1} = 3 n_a - n_{a-1} by hand; it is the
alternate-index Fibonacci slice, which makes transcription errors easy to
spot.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs.chebyshev import QParameter, q_number
from qgs.fusion import dims, fuse, fusion_check, growth_rate
from qgs.precision import set_precision_bits, working_precision


def test_fuse_examples():
    assert fuse(2, 3) == [1, 3, 5]
    assert fuse(0, 7) == [7]
    assert fuse(7, 0) == [7]
    assert fuse(3, 3) == [0, 2, 4, 6]


def test_fuse_commutes():
    for a in range(8):
        for b in range(8):
            assert fuse(a, b) == fuse(b, a)


def test_fuse_validation():
    with pytest.raises(ValueError):
        fuse(-1, 2)


def test_dims_classical_sequences():
    t3 = dims(QParameter.kac(3), 8)
    assert list(t3.n[:6]) == [1, 3, 8, 21, 55, 144]
    t2 = dims(QParameter(1, 2), 10)
    assert list(t2.n) == [a + 1 for a in range(11)]


def test_dims_quantum_column():
    param = QParameter(Fraction(1, 2), 2)
    t = dims(param, 5)
    assert [float(v) for v in t.qdim] == [1, 2.5, 5.25, 10.625, 21.3125, 42.65625]
    for a in range(6):
        assert t.qdim[a] == q_number(a + 1, param)


def test_dims_recursion_invariant():
    t = dims(QParameter.kac(4), 30)
    for a in range(1, 30):
        assert 4 * t.n[a] == t.n[a + 1] + t.n[a - 1]


def test_quantum_dim_dominates_classical():
    # qdim >= n, equality only in the Kac regime
    kac = dims(QParameter.kac(3), 12)
    for a in range(13):
        assert abs(float(kac.qdim[a]) - kac.n[a]) < 1e-20 * max(1, kac.n[a])
    strict = dims(QParameter(Fraction(1, 4), 3), 12)
    for a in range(2, 13):
        assert float(strict.qdim[a]) > strict.n[a]


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=0, max_value=40), b=st.integers(min_value=0, max_value=40))
def test_classical_sum_rule_exact(a, b):
    t = dims(QParameter.kac(3), 80)
    assert t.n[a] * t.n[b] == sum(t.n[g] for g in fuse(a, b))


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=0, max_value=40), b=st.integers(min_value=0, max_value=40))
def test_quantum_sum_rule_exact(a, b):
    t = dims(QParameter(Fraction(1, 2), 2), 80)
    assert t.qdim[a] * t.qdim[b] == sum(t.qdim[g] for g in fuse(a, b))


def test_quantum_sum_rule_spot():
    # [3][4] = 55.78125 = [2] + [4] + [6] at q = 1/2
    param = QParameter(Fraction(1, 2), 2)
    lhs = q_number(3, param) * q_number(4, param)
    assert float(lhs) == 55.78125
    assert lhs == q_number(2, param) + q_number(4, param) + q_number(6, param)


def test_growth_rate_kac():
    probe = growth_rate(QParameter.kac(3), 60)
    assert abs(float(probe.limsup_product) - 1) < 0.05


def test_growth_rate_strict():
    probe = growth_rate(QParameter(Fraction(1, 4), 3), 60)
    q0 = (3 - math.sqrt(5)) / 2
    assert abs(float(probe.limsup_product) - 0.25 / q0) < 0.05


def test_growth_rate_degenerate():
    probe = growth_rate(QParameter(1, 2), 60)
    assert float(probe.n_root) == pytest.approx(61 ** (1 / 60), rel=1e-9)
    assert float(probe.limsup_product) > 1


def test_dimension_tail_converges():
    # n_a * q0^a settles: successive values differ by <= 1e-6 for a >= 200
    import mpmath

    param = QParameter.kac(3)
    t = dims(param, 220)
    with mpmath.workprec(256):
        q0 = (3 - mpmath.sqrt(5)) / 2
        vals = [float(mpmath.mpf(t.n[a]) * q0 ** a) for a in range(200, 221)]
    for x, y in zip(vals, vals[1:]):
        assert abs(x - y) <= 1e-6


def test_fusion_check_record():
    rec = fusion_check(QParameter(Fraction(1, 2), 2), 3, 4)
    assert rec.channels == fuse(3, 4)
    assert rec.classical_ok and rec.quantum_ok


def test_dims_cache_is_keyed_on_precision():
    param = QParameter("0.381966", 3)
    try:
        set_precision_bits(64)
        dims(param, 50)
        set_precision_bits(512)
        table = dims(param, 50)
        with working_precision():
            want = q_number(51, param)
            assert abs(table.qdim[50] - want) <= mpmath.mpf(2) ** -400 * want
    finally:
        set_precision_bits(None)
