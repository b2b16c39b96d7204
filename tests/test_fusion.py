"""Fusion data: decomposition lists, dimension tables, growth probes.

The N = 3 dimension sequence 1, 3, 8, 21, 55, 144, ... was derived by
running the integer recursion n_{a+1} = 3 n_a - n_{a-1} by hand; it is the
alternate-index Fibonacci slice, which makes transcription errors easy to
spot.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import to_mpf, working_precision
from qgs import fusion
from qgs.chebyshev import QParameter, _context, _values, q_number
from qgs.cli import _num
from qgs.errors import ResourceLimitError
from qgs.fusion import dims, fuse, fusion_check, fusion_grid, growth_rate
from qgs.precision import precision_bits, set_precision_bits


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


@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_fusion_check_is_the_grid_cell_at_decimal_q(bits):
    # the public results are the kernel's Decimals, at the digits of the width
    set_precision_bits(bits)
    try:
        param = QParameter("0.5", 2)
        check = fusion_check(param, 2, 3)
        cell = next(c for c in fusion_grid(param, 3) if (c.alpha, c.beta) == (2, 3))
    finally:
        set_precision_bits(None)
    assert type(check.qdim_product) is type(check.qdim_sum) is Decimal
    assert record(check) == record(cell)
    assert len(check.qdim_sum.as_tuple().digits) <= _context(bits).prec


def test_fusion_labels_refused_before_any_channel_list(monkeypatch):
    # 10^9 channels would be a list of 8 GB; the ceiling on a + b comes first
    def unbuilt(*args):
        raise AssertionError("a channel list was built")

    monkeypatch.setattr(fusion, "fuse", unbuilt)
    param = QParameter(Fraction(1, 2), 2)
    with pytest.raises(ResourceLimitError, match="exceed 20000 labels"):
        fusion_check(param, 10**9, 10**9)
    with pytest.raises(ValueError, match="must be >= 0"):
        fusion_check(param, -1, 10**9)


def test_dims_cache_is_keyed_on_precision():
    param = QParameter("0.381966", 3)
    try:
        set_precision_bits(64)
        dims(param, 50)
        set_precision_bits(512)
        table = dims(param, 50)
        with working_precision():
            want = to_mpf(q_number(51, param))
            assert abs(to_mpf(table.qdim[50]) - want) <= mpmath.mpf(2) ** -400 * want
    finally:
        set_precision_bits(None)


def direct_check(table, a, b):
    """Both sum rules on cell (a, b) with one q-dimension added per channel:
    the oracle of the telescoped prefix sums."""
    channels = fuse(a, b)
    with localcontext(_context(precision_bits())):  # no effect on Fractions
        qdim_product = table.qdim[a] * table.qdim[b]
        qdim_sum = sum(table.qdim[g] for g in channels)
        if isinstance(qdim_product, Fraction):
            quantum_ok = qdim_product == qdim_sum
        else:
            quantum_ok = abs(qdim_product - qdim_sum) <= Decimal(1e-12) * abs(qdim_product)
    n_product, n_sum = table.n[a] * table.n[b], sum(table.n[g] for g in channels)
    return (channels, n_product, n_sum, qdim_product, qdim_sum, n_product == n_sum, quantum_ok)


def record(check):
    return (check.channels, check.n_product, check.n_sum, check.qdim_product, check.qdim_sum,
            check.classical_ok, check.quantum_ok)


@pytest.mark.parametrize(
    "param, alpha_max",
    [(QParameter(Fraction(4, 11), 2), 60), (QParameter(Fraction(1, 3), 3), 40)],
)
def test_fusion_grid_equals_the_direct_sums_at_rational_q(param, alpha_max):
    table = dims(param, 2 * alpha_max)
    grid = fusion_grid(param, alpha_max)
    top = alpha_max + 1
    assert [(c.alpha, c.beta) for c in grid] == [(a, b) for a in range(top) for b in range(a, top)]
    for check in grid:
        assert record(check) == direct_check(table, check.alpha, check.beta)
        assert check.classical_ok and check.quantum_ok


@pytest.mark.parametrize("bits", [128, 256])
def test_fusion_grid_prints_the_direct_sums_at_decimal_q(bits):
    # the 12-digit numbers of the CLI records, the verdicts and the integers agree
    rng = random.Random(bits)
    qs = ["0.01", "0.3", "0.95", "0.999"] + [
        f"{rng.uniform(0.02, 0.99):.{rng.randint(2, 12)}f}" for _ in range(6)
    ]
    try:
        set_precision_bits(bits)
        for q in qs:
            param = QParameter(q, 2)
            table = dims(param, 50)
            for check in fusion_grid(param, 25):
                want = direct_check(table, check.alpha, check.beta)
                got = record(check)
                assert got[:3] + got[5:] == want[:3] + want[5:]
                assert [str(_num(v)) for v in got[3:5]] == [str(_num(v)) for v in want[3:5]]
    finally:
        set_precision_bits(None)


def test_fusion_check_is_the_grid_rule_on_one_cell():
    param = QParameter(Fraction(4, 11), 2)
    table = dims(param, 70)
    for a, b in ((0, 0), (7, 0), (3, 9), (35, 35), (12, 5)):
        check = fusion_check(param, a, b)
        assert (check.alpha, check.beta) == (a, b)
        assert record(check) == direct_check(table, a, b)


def test_fusion_grid_builds_one_table():
    param = QParameter(Fraction(7, 23), 2)
    misses = dims.cache_info().misses
    grid = fusion_grid(param, 40)
    assert dims.cache_info().misses == misses + 1
    assert len(grid) == 41 * 42 // 2


@pytest.mark.parametrize(
    "q, refused, accepted",
    [("0.5", 201, 200), (Fraction(4, 11), 152, 151), (Fraction(1, 10**150), 25, 24)],
)
def test_fusion_grid_refused_before_any_table(monkeypatch, q, refused, accepted):
    class Built(Exception):
        pass

    def unbuilt(*args):
        raise Built

    monkeypatch.setattr(fusion, "_dims", unbuilt)
    param = QParameter(q, 2)
    with pytest.raises(ResourceLimitError, match="q-dimensions"):
        fusion_grid(param, refused)
    # the largest grid within MAX_GRID_WORK goes on to its table
    with pytest.raises(Built):
        fusion_grid(param, accepted)


def test_dims_cache_is_bounded():
    param = QParameter(Fraction(2, 9), 2)
    for top in range(200):
        dims(param, top)
    info = dims.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 200


_NINES = "0." + "9" * 300  # within 1e-300 of 1, which 1,024 bits resolve


@pytest.mark.parametrize("bits", [53, 128, 256, 1024])
@pytest.mark.parametrize("q", ["1e-150", "0.3", "0.5", "0.9", "0.999999999", _NINES, "1.0"])
def test_decimal_dimensions_agree_with_the_mpf_recurrence(bits, q):
    # the oracle steps the recurrence in mpf, 64 bits wider, from the exact
    # q + 1/q; the kernel rounds q + 1/q to its digits first, and near x = 2
    # the recurrence turns a relative change of x into (a+1)^2/6 times it at
    # label a, hence the bound
    if q == _NINES and bits < 1024:
        return  # q reads as 1 there, and is refused
    set_precision_bits(bits)
    try:
        p = QParameter(q, 2)
        table = dims(p, 19999)
        exact = q == "1.0"  # held as q = 1, whose tables are exact: [a+1] = a + 1
        assert dims(p, 40).qdim == table.qdim[:41]
    finally:
        set_precision_bits(None)
    if exact:
        assert table.qdim == tuple(range(1, 20001))
        assert all(type(x) is Fraction for x in table.qdim)
    num, den = p.q.as_integer_ratio()
    with mpmath.workprec(bits + 64):
        x = mpmath.mpf(num * num + den * den) / (num * den)
        for a, want in enumerate(islice(_values(x), 20000)):
            if a % 37 == 0 or a > 19990:
                got = mpmath.mpf(str(table.qdim[a]))
                assert abs(got - want) <= 2.0 ** (8 - bits) * (a + 1) ** 2 * want
