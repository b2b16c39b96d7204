"""Qubit-chain Temperley-Lieb calculus: generators, projections, isometries.

Hand-derived oracles used below: one recursion step gives p_2 = I - e_1/d
with d the loop parameter; the quantum trace of p_2 is [3] = d^2 - 1
(5.25 at q = 1/2); the single-cup isometry embedding the trivial label in
1 (x) 1 is w/sqrt(d) for the defining vector w.  The closed-form fusion
coefficients are checked against their chain construction (_chain_coefficients:
nested cups under the target basis, projected on the product basis), and
the weight-basis defects against the chain maps of the isometries (_chain_sides).
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

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


def test_jw_memoized_and_frozen():
    p = QParameter(0.5, 2)
    assert jones_wenzl(p, 5) is jones_wenzl(p, 5)
    with pytest.raises(ValueError):
        jones_wenzl(p, 5).basis[0, 0] = 1.0


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
    for r in jw_report(p, 12):
        target = q_number(r.n + 1, p)
        direct = abs(jones_wenzl(p, r.n).quantum_trace() - float(target)) / float(target)
        assert r.trace_rel_error == pytest.approx(direct, abs=1e-14)
        with working_precision():
            assert r.trace_error == r.trace_rel_error * to_mpf(target)


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


def _chain_sides(param, alpha, r, s, k, l):
    """Both bracketings as chain maps out of the source, built from the
    chain isometries: the 2^(s+alpha+r)-row oracle for the weight-basis sides."""
    inner_a = fusion_isometry(param, alpha, r, alpha + l)
    outer_a = fusion_isometry(param, s, alpha + l, alpha + k + l)
    t = np.tensordot(
        jones_wenzl(param, alpha + l).basis,
        outer_a.V.reshape(2 ** s, 2 ** (alpha + l), -1), axes=([0], [1]),
    )
    a_side = np.tensordot(inner_a.V, t, axes=([1], [0]))
    a_side = a_side.transpose(1, 0, 2).reshape(2 ** (s + alpha + r), -1)

    inner_b = fusion_isometry(param, s, alpha, alpha + k)
    outer_b = fusion_isometry(param, alpha + k, r, alpha + k + l)
    t = np.tensordot(
        jones_wenzl(param, alpha + k).basis,
        outer_b.V.reshape(2 ** (alpha + k), 2 ** r, -1), axes=([0], [0]),
    )
    b_side = np.tensordot(inner_b.V, t, axes=([1], [0]))
    b_side = b_side.reshape(2 ** (s + alpha + r), -1)
    return a_side, b_side


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 1.0])
def test_pentagon_defect_is_the_operator_norm(q):
    # the largest column norm stands in for the largest singular value
    p = QParameter(q, 2)
    for alpha, r, s in itertools.product(range(5), (1, 2, 3), (1, 2, 3)):
        for k, l in itertools.product(range(-s, s + 1, 2), range(-r, r + 1, 2)):
            if alpha + k not in fuse(s, alpha) or alpha + l not in fuse(alpha, r):
                continue
            target = alpha + k + l
            if target not in fuse(alpha + k, r) or target not in fuse(s, alpha + l):
                continue
            diff = _aligned_difference(*_chain_sides(p, alpha, r, s, k, l), True)
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
