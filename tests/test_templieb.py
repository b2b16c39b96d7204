"""Qubit-chain Temperley-Lieb calculus: generators, projections, isometries.

Hand-derived oracles used below: one recursion step gives p_2 = I - e_1/d
with d the loop parameter; the quantum trace of p_2 is [3] = d^2 - 1
(5.25 at q = 1/2); the single-cup isometry embedding the trivial label in
1 (x) 1 is w/sqrt(d) for the defining vector w.  The closed-form fusion
coefficients are checked against their chain construction (_chain_coefficients:
nested cups under the target basis, projected on the product basis), and
the weight-basis defects against the chain maps of the isometries (_chain_sides).
The fusion kernels run on decimal.Decimal; the mpmath kernels they replaced
(_mpf_isometries, _mpf_pentagon_gap, _mpf_pentagon_defect) are kept here as
their oracle.
"""

import functools
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import mpmath
import numpy as np
import pytest

from qgs import templieb
from qgs.chebyshev import QParameter, q_number
from qgs.errors import ResourceLimitError
from qgs.fusion import fuse
from qgs.precision import to_mpf, working_precision
from qgs.templieb import (
    _bits,
    _weighted_defect,
    commutator_estimate,
    commutator_suite,
    fusion_isometry,
    jones_wenzl,
    jw_report,
    pentagon_bound,
    pentagon_defect,
    tl_rep,
    weight_matrix,
)


def loop_parameter(q):
    return q + 1 / q


def _weight_diag(param, n):
    """Diagonal of the n-fold Kronecker product of diag(1/q, q), in site order."""
    q = float(param.q)
    return functools.reduce(np.kron, [np.array([1.0 / q, q])] * n, np.ones(1))


def test_defining_vector_rank_one_generator():
    q = 0.25
    rep = tl_rep(QParameter(q, 2), 2)
    e = rep.generator_matrix(1)
    w = np.array([0.0, math.sqrt(q), -1 / math.sqrt(q), 0.0])
    assert np.allclose(e, np.outer(w, w), atol=1e-14)
    assert np.allclose(e @ e, loop_parameter(q) * e, atol=1e-12)


def test_classical_limit_generator():
    rep = tl_rep(QParameter(1, 2), 2)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    assert np.allclose(rep.generator_matrix(1), 2 * np.outer(singlet, singlet), atol=1e-14)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0])
def test_tl_relations(q):
    n = 5
    rep = tl_rep(QParameter(q, 2), n)
    d = loop_parameter(q)
    es = [rep.generator_matrix(i) for i in range(1, n)]
    for i, e in enumerate(es, start=1):
        assert np.max(np.abs(e @ e - d * e)) <= 1e-12
        for j, f in enumerate(es, start=1):
            if abs(i - j) == 1:
                assert np.max(np.abs(e @ f @ e - e)) <= 1e-12
            elif i != j:
                assert np.max(np.abs(e @ f - f @ e)) <= 1e-12


def test_apply_matches_dense():
    rng = np.random.default_rng(7)
    rep = tl_rep(QParameter(0.5, 2), 5)
    x = rng.standard_normal((32, 3))
    for i in range(1, 5):
        dense = rep.generator_matrix(i) @ x
        assert np.allclose(rep.apply(i, x), dense, atol=1e-13)


def test_tl_rep_validation():
    with pytest.raises(ValueError):
        tl_rep(QParameter(0.5, 2), 0)
    with pytest.raises(ResourceLimitError):
        tl_rep(QParameter(0.5, 2), 15)


def test_jw_small_cases():
    p = QParameter(0.5, 2)
    jw1 = jones_wenzl(p, 1)
    assert np.allclose(jw1.matrix(), np.eye(2), atol=1e-14)
    jw2 = jones_wenzl(p, 2)
    rep = tl_rep(p, 2)
    expected = np.eye(4) - rep.generator_matrix(1) / loop_parameter(0.5)
    assert np.allclose(jw2.matrix(), expected, atol=1e-12)
    assert jw2.quantum_trace() == pytest.approx(5.25, abs=1e-10)


def test_jw_invariants():
    for q in (0.3, 0.5):
        param = QParameter(q, 2)
        for n in range(1, 9):
            jw = jones_wenzl(param, n)
            b = jw.basis
            assert b.shape == (2 ** n, n + 1)
            gram = b.T @ b
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10
            rep = tl_rep(param, n)
            for i in range(1, n):
                assert np.max(np.abs(rep.apply(i, b))) <= 1e-9
            assert jw.quantum_trace() == pytest.approx(
                float(q_number(n + 1, param)), abs=1e-8
            )


def test_quantum_trace_weights_columns_by_weight():
    # column k lives on the words of weight k, where the Kronecker diagonal is q^(2k-n)
    for q in (0.3, 0.5):
        param = QParameter(q, 2)
        for n in range(13):
            b = jones_wenzl(param, n).basis
            direct = float(np.einsum("x,xj,xj->", _weight_diag(param, n), b, b))
            assert jones_wenzl(param, n).quantum_trace() == pytest.approx(direct, rel=1e-12)
    # the Kronecker diagonal meets zero entries with 1/q^12 = inf there, which gave NaN
    assert jones_wenzl(QParameter("1e-30", 2), 12).quantum_trace() == math.inf


def test_jw_basis_is_weight_pure():
    # column k lives on the words with k ones, so weights are diagonal on it
    p = QParameter(0.3, 2)
    for n in range(1, 9):
        b = jones_wenzl(p, n).basis
        ones = np.array([bin(x).count("1") for x in range(2 ** n)])
        assert np.all(b[ones[:, None] != np.arange(n + 1)] == 0)


def test_jw_basis_is_frozen():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        jones_wenzl(p, 5).basis[0, 0] = 1.0


def test_calls_keep_nothing():
    # tables, isometries and bases live for one call, so 20 new q leave no
    # more traced memory than they found
    def calls(q):
        p = QParameter(q, 2)
        commutator_suite(p, [1, 2])
        pentagon_defect(p, 3, 1, 2, 0, 1)
        fusion_isometry(p, 4, 3, 3)
        jones_wenzl(p, 10)

    calls("0.5")  # imports and their one-time state, outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(20):
            calls(f"0.{31 + 2 * i}")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20


def test_jw_resource_limit():
    with pytest.raises(ResourceLimitError):
        jones_wenzl(QParameter(0.5, 2), 20)


def test_jw_report_rows():
    p = QParameter(0.5, 2)
    rows = jw_report(p, 6)
    assert [r.n for r in rows] == list(range(1, 7))
    for r in rows:
        assert r.rank == r.n + 1
        assert r.idempotency <= 1e-9
        assert r.annihilation <= 1e-9
        assert r.trace_error <= 1e-8
        assert r.trace_rel_error == r.trace_error / float(q_number(r.n + 1, p))


@pytest.mark.parametrize("q", ["1e-30", Fraction(1, 10**30)])
def test_jw_report_at_tiny_q(q):
    # [n+1]_q ~ 1e360 at n = 12 lies beyond the double range
    p = QParameter(q, 2)
    for r in jw_report(p, 12):
        assert r.trace_rel_error == 0.0
        assert r.trace_error == 0
    assert q_number(13, p) > 1e308


def test_jw_report_scaled_trace_matches_direct_trace():
    # where q^-n fits a double, the trace taken against diag(1/q, q) agrees
    p = QParameter(0.3, 2)
    exact = QParameter(Fraction(*p.q.as_integer_ratio()), 2)  # the same q, as a Fraction
    for r in jw_report(p, 12):
        target = q_number(r.n + 1, exact)
        direct = abs(jones_wenzl(p, r.n).quantum_trace() - float(target)) / float(target)
        assert r.trace_rel_error == pytest.approx(direct, abs=1e-14)
        assert r.trace_error == Fraction(r.trace_rel_error) * target


def _dense_jw_report(param, n_max):
    """The dense report jw-verify gave before its checks moved to weight
    sectors: the whole image basis b, the spectral norms of b^T b - 1 and of
    each e_i b as largest column norms, and the trace against diag(1, q^2)
    per site.  Rows of (n, rank, idempotency, annihilation, trace_rel_error)."""
    site = np.array([1.0, float(param.q) ** 2])
    diag = np.ones(1)
    rows = []
    for n in range(1, n_max + 1):
        jw = jones_wenzl(param, n)
        b = jw.basis
        idem = float(np.max(np.abs(np.diag(b.T @ b) - 1)))
        rep = tl_rep(param, n)
        ann = max((float(np.max(np.linalg.norm(rep.apply(i, b), axis=0)))
                   for i in range(1, n)), default=0.0)
        diag = np.kron(diag, site)
        target = float(np.sum(site[1] ** np.arange(n + 1)))
        rel = abs(float(np.einsum("x,xj,xj->", diag, b, b)) - target) / target
        rows.append((n, jw.rank, idem, ann, rel))
    return rows


def _passes(idem, ann, rel, residual_tol=1e-9, trace_tol=1e-8):  # jw-verify's defaults
    return idem <= residual_tol and ann <= residual_tol and rel <= trace_tol


_rng = np.random.default_rng(21)
_DENSE_CASES = [  # q log-uniform in [1e-300, 1], then rational q and q = 1
    *((float(10.0 ** -x), int(n)) for x, n in zip(_rng.uniform(0, 300, 10),
                                                    _rng.integers(1, 15, 10))),
    (Fraction(1, 20), 13), (Fraction(1, 3), 14), (Fraction(4, 11), 9),
    (Fraction(9, 10), 14), (Fraction(1, 10**30), 12), (1, 1), (1, 14),
]


@pytest.mark.parametrize("q, n_max", _DENSE_CASES)
def test_jw_report_matches_the_dense_report(q, n_max):
    param = QParameter(q, 2)
    dense = _dense_jw_report(param, n_max)
    rows = jw_report(param, n_max)
    assert [(r.n, r.rank) for r in rows] == [row[:2] for row in dense]
    for r, (_, _, idem, ann, rel) in zip(rows, dense):
        assert r.idempotency == pytest.approx(idem, rel=0, abs=1e-13)
        assert r.annihilation == pytest.approx(ann, rel=0, abs=1e-13)
        assert r.trace_rel_error == pytest.approx(rel, rel=0, abs=1e-13)
    assert (all(_passes(r.idempotency, r.annihilation, r.trace_rel_error) for r in rows)
            == all(_passes(*row[2:]) for row in dense))


def test_jw_report_sees_a_wrong_entry(monkeypatch):
    # one exponent off by one on the last level: the sector checks report
    # what the dense generators see on the same vectors
    param, n_max = QParameter(Fraction(1, 2), 2), 6
    real = templieb._weight_sectors

    def skewed(n_max):
        for sectors in real(n_max):
            sectors = [dict(sector) for sector in sectors]
            if len(sectors) == n_max + 1:
                sectors[2][0b000101] += 1
            yield sectors

    monkeypatch.setattr(templieb, "_weight_sectors", skewed)
    *_, last = jw_report(param, n_max)
    *_, sectors = skewed(n_max)
    b = np.zeros((2 ** n_max, n_max + 1))
    for k, sector in enumerate(sectors):
        for w, e in sector.items():
            b[w, k] = 0.5 ** e
    b /= np.linalg.norm(b, axis=0)
    rep = tl_rep(param, n_max)
    ann = max(float(np.max(np.linalg.norm(rep.apply(i, b), axis=0))) for i in range(1, n_max))
    assert ann > 0.1
    assert last.annihilation == pytest.approx(ann, rel=1e-12)
    assert last.idempotency < 1e-15


def test_references_outside_double_range_are_usage_errors():
    with pytest.raises(ValueError, match="q = 1e-30, alpha = 11"):
        commutator_estimate(QParameter(1e-30, 2), 11, 1, 1, -1, -1)
    assert commutator_estimate(QParameter(1e-30, 2), 10, 1, 1, 1, 1).reference > 0
    tiny = QParameter(1e-200, 2)
    with pytest.raises(ValueError, match="alpha = 3"):
        pentagon_bound(tiny, 3, 1, 1)
    with pytest.raises(ValueError, match="alpha = 0"):
        pentagon_bound(tiny, 0, 5, 1)  # q^-2 overflows


def test_weight_matrix_spots():
    p = QParameter(0.5, 2)
    q1 = weight_matrix(p, 1)
    assert np.allclose(q1, np.diag([2.0, 0.5]), atol=1e-12)
    assert np.trace(weight_matrix(p, 2)) == pytest.approx(5.25, abs=1e-8)
    for a in range(1, 8):
        b = jones_wenzl(p, a).basis
        measured = b.T @ (_weight_diag(p, a)[:, None] * b)
        assert np.allclose(weight_matrix(p, a), measured, rtol=1e-12, atol=1e-14)
        tr = np.trace(weight_matrix(p, a))
        assert tr == pytest.approx(float(q_number(a + 1, p)), abs=1e-8)
        vals = np.linalg.eigvalsh(weight_matrix(p, a))
        assert vals.min() > 0
    classical = weight_matrix(QParameter(1, 2), 4)
    assert np.allclose(classical, np.eye(5), atol=1e-10)


def test_weight_matrix_is_frozen():
    with pytest.raises(ValueError):
        weight_matrix(QParameter(0.5, 2), 3)[0, 0] = 1.0


def test_fusion_isometry_trivial_right_factor():
    p = QParameter(0.5, 2)
    iso = fusion_isometry(p, 3, 0, 3)
    assert np.allclose(iso.V, jones_wenzl(p, 3).basis, atol=1e-10)


def test_fusion_isometry_single_cup():
    q = 0.5
    iso = fusion_isometry(QParameter(q, 2), 1, 1, 0)
    w = np.array([0.0, math.sqrt(q), -1 / math.sqrt(q), 0.0])
    target = w / math.sqrt(loop_parameter(q))
    col = iso.V[:, 0]
    sign = 1.0 if abs(col[1] - target[1]) < abs(col[1] + target[1]) else -1.0
    assert np.allclose(sign * col, target, atol=1e-10)


def test_fusion_isometry_is_isometry():
    p = QParameter(0.5, 2)
    for a, b, g in ((2, 1, 1), (2, 2, 2), (3, 2, 1), (2, 3, 5)):
        iso = fusion_isometry(p, a, b, g)
        gram = iso.V.T @ iso.V
        assert np.max(np.abs(gram - np.eye(g + 1))) <= 1e-10


def test_fusion_isometry_lives_in_product_image():
    p = QParameter(0.5, 2)
    iso = fusion_isometry(p, 2, 2, 2)
    pa = jones_wenzl(p, 2).matrix()
    proj = np.kron(pa, pa)
    assert np.max(np.abs(proj @ iso.V - iso.V)) <= 1e-10


def test_fusion_isometry_weight_intertwining():
    p = QParameter(0.5, 2)
    for a, b, g in ((2, 1, 1), (2, 2, 0), (3, 1, 2)):
        iso = fusion_isometry(p, a, b, g)
        lhs = iso.V @ weight_matrix(p, g)
        rhs = np.kron(weight_matrix(p, a), weight_matrix(p, b))
        basis = np.kron(jones_wenzl(p, a).basis, jones_wenzl(p, b).basis)
        rhs_chain = basis @ rhs @ basis.T @ iso.V
        assert np.max(np.abs(lhs - rhs_chain)) <= 1e-8


def test_fusion_isometry_resolution_of_identity():
    p = QParameter(0.5, 2)
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2)):
        total = np.zeros((2 ** (a + b), 2 ** (a + b)))
        for g in fuse(a, b):
            v = fusion_isometry(p, a, b, g).V
            total += v @ v.T
        target = np.kron(jones_wenzl(p, a).matrix(), jones_wenzl(p, b).matrix())
        assert np.max(np.abs(total - target)) <= 1e-8


def test_fusion_isometry_validation():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        fusion_isometry(p, 2, 1, 0)
    # the work ceiling refuses before any table is built or any channel listed
    with pytest.raises(ResourceLimitError, match="units of work"):
        fusion_isometry(p, 10**9, 10**9, 2)
    with pytest.raises(ResourceLimitError, match="units of work"):
        fusion_isometry(QParameter("1e-300", 2), 100, 1, 101)
    # 16 sites of coefficients are fine; their chain matrix is not
    iso = fusion_isometry(p, 8, 8, 2)
    with pytest.raises(ResourceLimitError, match="14-site limit"):
        iso.V  # noqa: B018


def _nested_cups(q, m):
    """Chain-ordered vector of m nested arcs on 2m adjacent sites."""
    root = math.sqrt(q)
    w2 = np.array([[0.0, root], [-1.0 / root, 0.0]])
    cup = np.ones(1)
    for _ in range(m):
        cup = np.einsum("ab,i->aib", w2, cup).reshape(-1)
    return cup


def _chain_coefficients(param, alpha, beta, gamma):
    """Fusion coefficients from 2^alpha x 2^beta chain arrays: nested cups
    under the target basis, projected on the product basis and scaled by the
    trace of their Gram matrix."""
    m = (alpha + beta - gamma) // 2
    ba, bb, bg = (jones_wenzl(param, n).basis for n in (alpha, beta, gamma))
    split = bg.reshape(2 ** (alpha - m), 2 ** (beta - m), gamma + 1)
    t = np.einsum("xyk,c->xcyk", split, _nested_cups(float(param.q), m))
    comp = np.einsum("ai,abk->ibk", ba, t.reshape(2 ** alpha, 2 ** beta, gamma + 1))
    comp = np.einsum("bj,ibk->ijk", bb, comp)
    flat = comp.reshape(-1, gamma + 1)
    return comp / math.sqrt(np.trace(flat.T @ flat) / (gamma + 1))


def _dense(iso):
    """The closed-form coefficients as a float64 (alpha+1, beta+1, gamma+1) array."""
    comp = np.zeros((iso.alpha + 1, iso.beta + 1, iso.gamma + 1))
    m = (iso.alpha + iso.beta - iso.gamma) // 2
    for (i, j), c in iso.coefficients.items():
        comp[i, j, i + j - m] = c
    return comp


def _aligned_difference(a_side, b_side, align_phase):
    if align_phase and np.sum(a_side * b_side) < 0:
        return a_side + b_side
    return a_side - b_side


CLOSED_FORM_QS = [0.05, 0.3, 0.8, "1.0", 1, Fraction(1, 3), Fraction(2, 5)]


@pytest.mark.parametrize("q", CLOSED_FORM_QS)
def test_closed_form_matches_chain_construction(q):
    p = QParameter(q, 2)
    for alpha, beta in itertools.product(range(7), repeat=2):
        for gamma in fuse(alpha, beta):
            closed = _dense(fusion_isometry(p, alpha, beta, gamma))
            chain = _chain_coefficients(p, alpha, beta, gamma)
            assert np.max(np.abs(closed - chain)) <= 1e-14, (alpha, beta, gamma)


@pytest.mark.parametrize("q", [0.08, "1.0", Fraction(2, 5)])
def test_closed_form_matches_chain_construction_at_13_sites(q):
    p = QParameter(q, 2)
    for alpha, beta, gamma in ((12, 1, 11), (12, 1, 13), (1, 12, 11), (7, 6, 3), (10, 3, 9)):
        closed = _dense(fusion_isometry(p, alpha, beta, gamma))
        chain = _chain_coefficients(p, alpha, beta, gamma)
        assert np.max(np.abs(closed - chain)) <= 1e-14, (alpha, beta, gamma)


@pytest.mark.parametrize("q", ["0.01", Fraction(1, 7), 1])
def test_closed_form_agrees_with_itself_at_twice_the_bits(q):
    p = QParameter(q, 2)
    for alpha, beta, gamma in ((20, 1, 21), (20, 1, 19), (1, 20, 19), (9, 9, 4), (3, 17, 16)):
        bits = _bits(p, alpha + beta)
        iso = fusion_isometry(p, alpha, beta, gamma)
        wide = fusion_isometry(p, alpha, beta, gamma, bits=2 * bits)
        assert iso.bits == bits and wide.bits == 2 * bits
        assert iso.coefficients.keys() == wide.coefficients.keys()
        for key, c in iso.coefficients.items():
            assert abs(c - wide.coefficients[key]) <= 2.0 ** -128, (alpha, beta, gamma, key)


def test_pentagon_defect_bound_spot():
    p = QParameter(0.5, 2)
    defect = pentagon_defect(p, 3, 1, 1, 1, 1)
    bound = pentagon_bound(p, 3, 1, 1)
    assert bound == pytest.approx(0.125, rel=1e-12)
    assert defect <= bound


def test_pentagon_mixed_routes_spot():
    p = QParameter(0.5, 2)
    defect = pentagon_defect(p, 3, 1, 1, -1, 1)
    assert defect > 1e-3
    assert defect <= 2 * pentagon_bound(p, 3, 1, -1)


def test_pentagon_coincident_routes():
    # equal shifts route both bracketings through the same multiplicity-one
    # channel, so the two compositions agree to machine precision
    p = QParameter(0.5, 2)
    assert pentagon_defect(p, 4, 1, 1, 1, 1) <= 1e-12
    assert pentagon_defect(p, 4, 1, 1, -1, -1) <= 1e-12


@pytest.mark.parametrize("q", [Fraction(1, 3), 1, "0.01"])
def test_coincident_routes_vanish_at_the_raised_precision(q):
    # the weight-basis gap of equal shifts is roundoff of the closed form at
    # its raised precision, far below float64's 1e-16 and below q^alpha
    p = QParameter(q, 2)
    for alpha in range(2, 12):
        assert _weighted_defect(p, alpha, 1, 1) <= 2.0 ** -120
        assert pentagon_defect(p, alpha, 1, 1, -1, -1) <= 2.0 ** -120
    # the single cup w/sqrt(d): coefficient of |0>|1> squared is q^2/(1 + q^2)
    iso = fusion_isometry(p, 1, 1, 0)
    with working_precision(iso.bits):
        q2 = to_mpf(p.q) ** 2
        assert abs(iso.coefficients[0, 1] ** 2 - q2 / (1 + q2)) <= 2.0 ** -120


def test_pentagon_defect_trivial_source():
    p = QParameter(0.5, 2)
    assert pentagon_defect(p, 0, 1, 1, 1, 1) <= 1e-9


def test_pentagon_phase_alignment_helps():
    p = QParameter(0.5, 2)
    aligned = pentagon_defect(p, 3, 1, 1, -1, 1, align_phase=True)
    raw = pentagon_defect(p, 3, 1, 1, -1, 1, align_phase=False)
    assert aligned <= raw + 1e-15


def test_pentagon_geometric_decay():
    p = QParameter(0.5, 2)
    alphas = range(2, 9)
    logs = [math.log(pentagon_defect(p, a, 1, 1, -1, 1)) for a in alphas]
    slope = np.polyfit(list(alphas), logs, 1)[0]
    assert abs(slope - math.log(0.5)) <= 0.05 * abs(math.log(0.5))


def _chain_sides(param, alpha, r, s, k, l, isometry=fusion_isometry):
    """Both bracketings as chain maps out of the source, built from the
    chain isometries (isometry(param, alpha, beta, gamma)): the
    2^(s+alpha+r)-row oracle for the weight-basis sides."""
    inner_a = isometry(param, alpha, r, alpha + l)
    outer_a = isometry(param, s, alpha + l, alpha + k + l)
    t = np.tensordot(
        jones_wenzl(param, alpha + l).basis,
        outer_a.V.reshape(2 ** s, 2 ** (alpha + l), -1), axes=([0], [1]),
    )
    a_side = np.tensordot(inner_a.V, t, axes=([1], [0]))
    a_side = a_side.transpose(1, 0, 2).reshape(2 ** (s + alpha + r), -1)

    inner_b = isometry(param, s, alpha, alpha + k)
    outer_b = isometry(param, alpha + k, r, alpha + k + l)
    t = np.tensordot(
        jones_wenzl(param, alpha + k).basis,
        outer_b.V.reshape(2 ** (alpha + k), 2 ** r, -1), axes=([0], [0]),
    )
    b_side = np.tensordot(inner_b.V, t, axes=([1], [0]))
    b_side = b_side.reshape(2 ** (s + alpha + r), -1)
    return a_side, b_side


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 1.0])
def test_pentagon_defect_is_the_operator_norm(q):
    # the largest column norm stands in for the largest singular value; the
    # oracle builds each isometry once, as the library keeps none between calls
    p = QParameter(q, 2)
    isometry = functools.cache(fusion_isometry)
    for alpha, r, s in itertools.product(range(5), (1, 2, 3), (1, 2, 3)):
        for k, l in itertools.product(range(-s, s + 1, 2), range(-r, r + 1, 2)):
            if alpha + k not in fuse(s, alpha) or alpha + l not in fuse(alpha, r):
                continue
            target = alpha + k + l
            if target not in fuse(alpha + k, r) or target not in fuse(s, alpha + l):
                continue
            diff = _aligned_difference(*_chain_sides(p, alpha, r, s, k, l, isometry), True)
            reference = np.linalg.svd(diff, compute_uv=False)[0]
            defect = pentagon_defect(p, alpha, r, s, k, l)
            assert defect == pytest.approx(reference, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", [0.08, 0.3, 0.6, 0.95])
def test_weight_basis_defects_match_chain_maps_at_full_size(q):
    # 12 sites (pentagon --alpha 10) and 13 sites (lemma65 --alpha-max 11)
    p = QParameter(q, 2)
    for alpha in (10, 11):
        for k, l in itertools.product((1, -1), repeat=2):
            diff = _aligned_difference(*_chain_sides(p, alpha, 1, 1, k, l), True)
            chain = float(np.max(np.linalg.norm(diff, axis=0)))
            assert abs(pentagon_defect(p, alpha, 1, 1, k, l) - chain) <= 5e-14
            hit = np.einsum("xayc,ai->xiyc", diff.reshape(2, 2 ** alpha, 2, -1),
                            jones_wenzl(p, alpha).basis)
            chain = float(np.max(np.linalg.norm(hit, axis=3)))
            assert abs(_weighted_defect(p, alpha, k, l) - chain) <= 5e-14


def test_pentagon_validation():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        pentagon_defect(p, 1, 1, 1, 2, 1)


def test_commutator_estimate_trivial():
    rec = commutator_estimate(QParameter(0.5, 2), 0, 1, 1, 1, 1)
    assert rec.weighted_defect <= 1e-9


def test_commutator_estimate_main_constant():
    rec = commutator_estimate(QParameter(0.5, 2), 4, 1, 1, 1, 1)
    assert rec.constant == 2
    assert rec.ratio <= 2 + 1e-9
    assert rec.reference == pytest.approx(0.5 ** 4, rel=1e-12)


def test_commutator_estimate_complementary_case():
    rec = commutator_estimate(QParameter(0.5, 2), 4, 1, 1, -1, -1)
    assert rec.constant == 6
    assert rec.ratio <= 6 + 1e-9


def test_commutator_estimate_scope():
    p = QParameter(0.5, 2)
    with pytest.raises(ValueError):
        commutator_estimate(p, 4, 2, 1, 1, 1)


def _weighted_defect_reference(param, alpha, k, l):
    """The weighted pairing with explicit weights on basis and probes."""
    diff = _aligned_difference(*_chain_sides(param, alpha, 1, 1, k, l), True)

    def weights(n):
        b = jones_wenzl(param, n).basis
        return b.T @ (_weight_diag(param, n)[:, None] * b)

    q1 = weights(1)
    za = jones_wenzl(param, alpha).basis @ weights(alpha)
    probe = np.einsum("am,bi,cn->abcmin", q1, za, q1).reshape(2 ** (alpha + 2), -1)
    norms = np.linalg.norm(diff.T @ probe, axis=0)
    n1 = np.linalg.norm(q1, axis=0)
    na = np.linalg.norm(za, axis=0)
    scales = np.einsum("m,i,n->min", n1, na, n1).reshape(-1)
    return float(np.max(norms / scales))


@pytest.mark.parametrize("q", [0.05, 0.4, 0.9, 1.0])
def test_weighted_defect_matches_weighted_probes(q):
    p = QParameter(q, 2)
    for alpha in range(7):
        for k, l in ((1, 1), (1, -1), (-1, 1)):
            if alpha + min(k, l) < 0:
                continue
            assert _weighted_defect(p, alpha, k, l) == pytest.approx(
                _weighted_defect_reference(p, alpha, k, l), rel=1e-12, abs=1e-15
            )


def test_commutator_suite_is_continuous_in_q():
    # the image basis is a function of q, not an eigen-solver's choice of
    # rotation, so one ulp of q moves no weighted defect; the abs floor only
    # covers the coincident routes k = l = 1, whose defect is roundoff
    base = commutator_suite(QParameter(0.4, 2), range(7))
    for q in (math.nextafter(0.4, 0), math.nextafter(0.4, 1)):
        rows = commutator_suite(QParameter(q, 2), range(7))
        assert [(r.alpha, r.k, r.l) for r in rows] == [(r.alpha, r.k, r.l) for r in base]
        for row, ref in zip(rows, base):
            assert row.weighted_defect == pytest.approx(
                ref.weighted_defect, rel=1e-12, abs=1e-14
            )


def test_commutator_suite_rows():
    rows = commutator_suite(QParameter(0.5, 2), range(0, 5))
    assert rows
    for rec in rows:
        assert rec.ratio <= rec.constant + 1e-9


def _mpf_tables(param, bits, labels):
    """templieb._tables on mpf values at bits."""
    top = max(map(max, labels))
    with working_precision(bits):
        q = to_mpf(param.q)
        numbers = templieb._values(q + 1 / q)
        nums = [0 * q] + [next(numbers) for _ in range(top)]
        binom = [[q ** 0]]
        for n in range(1, top + 1):
            binom.append([q ** 0] + [binom[-1][k - 1] * nums[n] / nums[k] for k in range(1, n + 1)])
        root = {n: [mpmath.sqrt(q ** (k * (n - k)) / b) for k, b in enumerate(binom[n])]
                for n in set().union(*labels)}
    return q, binom, root, {}


def _mpf_isometries(param, bits, labels):
    """templieb._isometries on mpf values: the closed form on mpf tables,
    normalised in mpmath at bits."""
    templieb._check_work(bits, labels)
    tables = _mpf_tables(param, bits, labels)

    @functools.cache
    def isometry(alpha, beta, gamma):
        with working_precision(bits):
            columns = templieb._closed_form(tables, alpha, beta, gamma)
            units = [1 / mpmath.sqrt(sum(c * c for _, c in column)) for column in columns]
            coefficients = {ij: c * unit for column, unit in zip(columns, units)
                            for ij, c in column}
        return templieb.FusionIsometry(param, alpha, beta, gamma, bits,
                                       MappingProxyType(coefficients))

    return isometry


def _mpf_pentagon_gap(isometry, alpha, r, s, k, l, align_phase):
    """templieb._pentagon_gap on mpf isometries, in mpmath at their bits."""
    isos = [isometry(*labels) for labels in templieb._pentagon_isometries(alpha, r, s, k, l)]
    inner_a, outer_a, inner_b, outer_b = (iso.coefficients for iso in isos)
    ma, mb = (r - l) // 2, (s - k) // 2
    with working_precision(isos[0].bits):
        a_side = {(i, a, j): c * outer_a[i, a + j - ma]
                  for (a, j), c in inner_a.items() for i in range(s + 1)
                  if (i, a + j - ma) in outer_a}
        b_side = {(i, a, j): c * outer_b[i + a - mb, j]
                  for (i, a), c in inner_b.items() for j in range(r + 1)
                  if (i + a - mb, j) in outer_b}
        if align_phase and sum(c * b_side.get(key, 0) for key, c in a_side.items()) < 0:
            b_side = {key: -c for key, c in b_side.items()}
        return {key: a_side.get(key, 0) - b_side.get(key, 0) for key in a_side.keys() | b_side}


def _mpf_pentagon_defect(param, alpha, r, s, k, l):
    """templieb.pentagon_defect on the mpf kernels."""
    bits = _bits(param, s + alpha + r)
    isometry = _mpf_isometries(param, bits, templieb._pentagon_isometries(alpha, r, s, k, l))
    columns = {}
    with working_precision(bits):
        for key, d in _mpf_pentagon_gap(isometry, alpha, r, s, k, l, True).items():
            columns[sum(key)] = columns.get(sum(key), 0) + d * d
        return float(mpmath.sqrt(max(columns.values())))


def _mpf_weighted_defect(param, alpha, k, l, isometry):
    """templieb._weighted_defect on the mpf kernels."""
    return float(max(map(abs, _mpf_pentagon_gap(isometry, alpha, 1, 1, k, l, True).values())))


@pytest.mark.parametrize("q", ["0.005", "0.05", "0.3", "0.5", "0.9", 1])
def test_decimal_coefficients_match_the_mpf_kernels(q):
    # every isometry on up to 13 sites, each coefficient within 2^-(bits-8)
    # of the mpf kernels' at the same bits: both are unit columns
    p = QParameter(q, 2)
    for alpha, beta in itertools.product(range(14), repeat=2):
        if alpha + beta > 13:
            continue
        for gamma in fuse(alpha, beta):
            iso = fusion_isometry(p, alpha, beta, gamma)
            oracle = _mpf_isometries(p, iso.bits, [(alpha, beta, gamma)])(alpha, beta, gamma)
            assert iso.coefficients.keys() == oracle.coefficients.keys()
            assert all(isinstance(c, mpmath.mpf) for c in iso.coefficients.values())
            for key, c in iso.coefficients.items():
                assert abs(c - oracle.coefficients[key]) <= 2.0 ** -(iso.bits - 8)


def _agree(value, oracle, bits):
    """Equal at 12 digits, or both below the roundoff floor 2^-(bits-8) of
    an exact zero (the coincident routes), where the two kernels differ."""
    floor = 2.0 ** -(bits - 8)
    if value <= floor or oracle <= floor:
        return value <= floor and oracle <= floor
    return f"{value:.12g}" == f"{oracle:.12g}"


def _tl_chain_inputs(seed, count):
    """lemma65 and pentagon inputs drawn as the benchmark's tl-chain draws
    them: q = 0.dddd, lemma65 up to 13 sites, pentagons up to 12."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        q = f"{rng.uniform(0.005, 0.95):.4f}"
        if rng.random() < 0.4:
            draws.append(("lemma65", q, rng.randint(1, 11)))
            continue
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        alpha = rng.randint(0, 12 - r - s)
        k, l = rng.choice(range(-s, s + 1, 2)), rng.choice(range(-r, r + 1, 2))
        if min(alpha + k, alpha + l, alpha + k + l) >= 0 and all(
                abs(a - b) <= g <= a + b
                for a, b, g in templieb._pentagon_isometries(alpha, r, s, k, l)):
            draws.append(("pentagon", q, (alpha, r, s, k, l)))
    return draws


@pytest.mark.parametrize("suite, q, sizes", _tl_chain_inputs(28, 120))
def test_tl_chain_records_match_the_mpf_kernels(suite, q, sizes, monkeypatch):
    p = QParameter(q, 2)
    if suite == "pentagon":
        bits = _bits(p, sum(sizes[:3]))
        assert _agree(pentagon_defect(p, *sizes), _mpf_pentagon_defect(p, *sizes), bits)
        return
    rows = commutator_suite(p, range(1, sizes + 1))
    monkeypatch.setattr(templieb, "_isometries", _mpf_isometries)
    monkeypatch.setattr(templieb, "_weighted_defect", _mpf_weighted_defect)
    oracle = commutator_suite(p, range(1, sizes + 1))
    bits = _bits(p, sizes + 2)
    assert len(rows) == len(oracle)
    for row, ref in zip(rows, oracle):
        assert row[:3] == ref[:3] and row.reference == ref.reference
        assert _agree(row.weighted_defect, ref.weighted_defect, bits)
        assert _agree(row.ratio, ref.ratio, bits - math.ceil(-row.alpha * math.log2(float(p.q))))
        assert row.passed == ref.passed
