"""End-to-end acceptance gate: eleven numbered criteria, one report line each.

Each criterion prints a [PASS]/[FAIL] line with its headline numbers and
then asserts.  Oracles are independent of the library paths they check:
the eigenvalue criterion uses the hyperbolic closed form, the semigroup
criterion uses a central finite difference, the Cesaro criterion uses the
analytic slope of each probe, and the word-calculus criterion relies on
exact rational bookkeeping.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np

from qgs import (
    QParameter,
    amenability_criterion,
    cesaro_sum,
    commutator_suite,
    eigenvalue,
    fuse,
    fusion_check,
    fusion_isometry,
    gap_constant_scan,
    gap_limit,
    hs_certificate,
    jones_wenzl,
    jw_report,
    pentagon_bound,
    pentagon_defect,
    regime_classify,
    semigroup_coeff,
    semigroup_rate,
    spectral_data,
    tl_rep,
)
from qgs.freewords import expansion_sweep
from qgs.precision import working_precision

KAC3_Q = (3 - math.sqrt(5)) / 2


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def hyperbolic_oracle(q, alpha):
    """(a+1)coth((a+1)s) - coth(s), over 2 sinh(s), at s = ln(1/q)."""
    s = -mpmath.log(q)
    return ((alpha + 1) * mpmath.coth((alpha + 1) * s) - mpmath.coth(s)) / (
        2 * mpmath.sinh(s)
    )


def test_criterion_01_eigenvalue_oracle():
    start = time.perf_counter()
    worst = 0.0
    for qv in (0.2, 0.5, 0.8):
        param = QParameter(qv, 2)
        data = spectral_data(param, 500)
        with working_precision():
            q = param.q_mpf()
            for datum in data[1:]:
                ref = hyperbolic_oracle(q, datum.alpha)
                worst = max(worst, abs(float((datum.delta - ref) / ref)))
        assert data[0].delta == 0
    exact = QParameter(Fraction(1, 2), 2)
    spot1 = eigenvalue(exact, 1) == Fraction(2, 5)
    spot2 = eigenvalue(exact, 2) == Fraction(20, 21)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and spot1 and spot2 and elapsed < 5.0
    report(
        1, ok,
        f"max relative gap to hyperbolic oracle {worst:.2e} (tol 1e-10), "
        f"spots 2/5 and 20/21 exact, {elapsed:.2f}s",
    )


def test_criterion_02_linear_growth():
    param = QParameter(0.5, 2)
    with working_precision():
        step = eigenvalue(param, 1000) - eigenvalue(param, 999)
        err = abs(float(step - gap_limit(param)))
    ok = err <= 1e-8
    report(2, ok, f"|step(1000) - limit| = {err:.2e} (tol 1e-8)")


def test_criterion_03_semigroup_generator():
    worst = 0.0
    for qv in (0.3, 0.5):
        param = QParameter(qv, 2)
        for alpha in range(1, 51):
            with working_precision():
                h = mpmath.mpf(10) ** -7
                fd = (
                    semigroup_coeff(param, alpha, 1 + h)
                    - semigroup_coeff(param, alpha, 1 - h)
                ) / (2 * h)
                rate = semigroup_rate(param, alpha)
                worst = max(worst, abs(float((fd - rate) / rate)))
    ok = worst <= 1e-6
    report(3, ok, f"max relative FD-vs-rate gap {worst:.2e} (tol 1e-6)")


def test_criterion_04_cesaro_probes():
    probes = (
        ("x", lambda s: s, 1.0),
        ("x^2", lambda s: s * s, 0.0),
        ("exp(2x)", lambda s: math.exp(2.0 * s), 2.0),
    )
    worst = 0.0
    for _, func, slope in probes:
        err = abs(cesaro_sum(func, 10**5) - math.log(2.0) * slope)
        worst = max(worst, err)
    ok = worst <= 1e-3
    report(4, ok, f"max |sum - log(2)*slope| = {worst:.2e} over 3 probes (tol 1e-3)")


def test_criterion_05_gap_scan_bounded():
    details = []
    ok = True
    for qv in (0.3, 0.5, 0.7):
        scan = gap_constant_scan(QParameter(qv, 2), 200, 5)
        ok = ok and math.isfinite(scan.sup_ratio) and scan.stable
        details.append(f"q={qv}: sup={scan.sup_ratio:.4g} stable={scan.stable}")
    report(5, ok, "; ".join(details))


def test_criterion_06_hs_verdicts():
    start = time.perf_counter()
    kac = QParameter(KAC3_Q, 3)
    low = QParameter(0.25, 3)
    verdicts = (
        hs_certificate(kac, 0.1, 200).verdict,
        hs_certificate(kac, 0, 200).verdict,
        hs_certificate(low, 0, 200).verdict,
    )
    regimes = (regime_classify(kac).ghs, regime_classify(low).ghs)
    elapsed = time.perf_counter() - start
    ok = (
        verdicts == ("finite", "divergent", "finite")
        and regimes == (False, True)
        and elapsed < 10.0
    )
    report(
        6, ok,
        f"verdicts {verdicts} (want finite/divergent/finite), "
        f"ghs flags {regimes} (want False/True), {elapsed:.2f}s",
    )


def test_criterion_07_tl_suite():
    worst_rel = 0.0
    worst_jw = 0.0
    worst_trace = 0.0
    worst_res = 0.0
    for qv in (0.3, 0.5):
        param = QParameter(qv, 2)
        delta = float(param.nq)
        for n in range(2, 11):
            rep = tl_rep(param, n)
            gens = [rep.generator_matrix(i) for i in range(1, n)]
            for i, e in enumerate(gens, 1):
                worst_rel = max(worst_rel, np.max(np.abs(e @ e - delta * e)))
                for j in range(i + 1, n):
                    f = gens[j - 1]
                    if j == i + 1:
                        worst_rel = max(worst_rel, np.max(np.abs(e @ f @ e - e)))
                        worst_rel = max(worst_rel, np.max(np.abs(f @ e @ f - f)))
                    else:
                        worst_rel = max(worst_rel, np.max(np.abs(e @ f - f @ e)))
        for row in jw_report(param, 10):
            worst_jw = max(worst_jw, row.idempotency, row.annihilation)
            worst_trace = max(worst_trace, float(row.trace_error))
        for total in range(2, 9):
            for alpha in range(1, total):
                beta = total - alpha
                target = np.kron(
                    jones_wenzl(param, alpha).matrix(),
                    jones_wenzl(param, beta).matrix(),
                )
                acc = np.zeros_like(target)
                for gamma in fuse(alpha, beta):
                    v = fusion_isometry(param, alpha, beta, gamma).V
                    acc += v @ v.T
                worst_res = max(worst_res, float(np.max(np.abs(acc - target))))
    ok = (
        worst_rel <= 1e-12
        and worst_jw <= 1e-9
        and worst_trace <= 1e-8
        and worst_res <= 1e-8
    )
    report(
        7, ok,
        f"relations {worst_rel:.2e} (1e-12), projection residuals "
        f"{worst_jw:.2e} (1e-9), trace {worst_trace:.2e} (1e-8), "
        f"resolution {worst_res:.2e} (1e-8)",
    )


def test_criterion_08_intertwiner_decay():
    start = time.perf_counter()
    ok = True
    details = []
    alphas = range(2, 9)
    max_constant = 0.0
    for qv in (0.3, 0.5):
        param = QParameter(qv, 2)
        for k in (-1, 1):
            defects = []
            for alpha in alphas:
                d = pentagon_defect(param, alpha, 1, 1, k, 1)
                defects.append(d)
                max_constant = max(
                    max_constant, d / float(pentagon_bound(param, alpha, 1, k))
                )
            if k == -1:
                slope = float(np.polyfit(list(alphas), np.log(defects), 1)[0])
                off = abs(slope - math.log(qv)) / abs(math.log(qv))
                ok = ok and off <= 0.05
                details.append(f"q={qv} slope {slope:.4f} ({off * 100:.2f}% off)")
            else:
                coincident = max(defects)
                ok = ok and coincident <= 1e-10
                details.append(f"q={qv} same-shift defect {coincident:.1e}")
        rows = commutator_suite(param, range(2, 7))
        ok = ok and all(r.passed for r in rows)
        ok = ok and {r.constant for r in rows} == {2, 6}
    ok = ok and max_constant <= 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        8, ok,
        f"{'; '.join(details)}; max constant {max_constant:.3f} (<= 2), "
        f"commutator constants 2 and 6 hold, {elapsed:.2f}s",
    )


def test_criterion_09_fusion_exactness():
    param = QParameter(Fraction(1, 2), 2)
    ok = True
    for alpha in range(41):
        for beta in range(alpha, 41):
            check = fusion_check(param, alpha, beta)
            ok = ok and check.classical_ok and check.quantum_ok
    # qdim of label 2 is the third quantum integer, qdim of label 3 the fourth
    spot = fusion_check(param, 2, 3)
    spot_ok = (
        float(spot.qdim_product) == 55.78125
        and spot.qdim_product == spot.qdim_sum
        and spot.channels == [1, 3, 5]
    )
    ok = ok and spot_ok
    report(
        9, ok,
        f"sum rules exact on 861 cells, spot qdim(2)*qdim(3) = "
        f"{float(spot.qdim_product)} over channels {spot.channels}",
    )


def test_criterion_10_word_calculus_sweep():
    start = time.perf_counter()
    reports = expansion_sweep(max_x=5, max_side=3, algebras=3)
    residual_ok = all(r.residual.is_zero() for r in reports)
    length_ok = all(r.ledger.max_word_length <= r.ledger.bound for r in reports)
    vanish_ok = all(r.lhs_is_zero for r in reports if r.must_vanish)
    passed_ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - start
    ok = residual_ok and length_ok and vanish_ok and passed_ok and elapsed < 120.0
    report(
        10, ok,
        f"{len(reports)} patterns: residuals empty={residual_ok}, "
        f"ledger lengths bounded={length_ok}, over-length middles vanish="
        f"{vanish_ok}, {elapsed:.1f}s",
    )


def test_criterion_11_amenability_dichotomy():
    free2 = amenability_criterion(QParameter(1, 2), 10**6)
    kac3 = QParameter(KAC3_Q, 3)
    probe3 = amenability_criterion(kac3, 10**6)
    plateau_ref = 1.0 / (2 * math.log(1 / KAC3_Q) * math.sqrt(5))
    plateau_gap = abs(probe3.ratios[-1] - plateau_ref) / plateau_ref
    ok = (
        free2.verdict == "satisfied"
        and probe3.verdict == "not-satisfied"
        and plateau_gap <= 0.10
    )
    report(
        11, ok,
        f"N=2 verdict {free2.verdict} (liminf~{free2.liminf_estimate:.1f}); "
        f"N=3 Kac verdict {probe3.verdict}, plateau {probe3.ratios[-1]:.4f} "
        f"vs {plateau_ref:.4f} ({plateau_gap * 100:.1f}% off, tol 10%)",
    )
