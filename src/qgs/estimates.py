"""Quantitative spectral estimates: second-difference gap bounds, the
Hilbert-Schmidt summability certificate, and regime classification.

The gap functional compares |delta_{a+g} - delta_a - delta_b + delta_{b-g}|
against a three-term power bound.  gap() takes both sides exactly at
rational q and at q = 1, from spectrum.eigenvalue and powers of u = q^2.
For q < 1, delta_a = (a+1)L - C + r_a with r_a = 2(a+1)q^(2a+3)/((1-q^2)
(1-q^(2a+2))); L and C cancel, leaving |r_{a+g} - r_a - r_b + r_{b-g}|,
which the grid scan evaluates in integers at rational q (_ExactCells: no
Fraction normalisation, one correctly rounded division per cell), and
gap() and the scan in float64 at decimal q (_FloatCells).  No route
raises the working precision.

At rational q the grid scan screens every cell in float64 (_FloatCells
at float(q), with log q from the fraction) and evaluates exactly only the
cells whose float ratio, widened by the margin _SCREEN_EPS, could still
raise the supremum they are compared with; every ratio it reports is an
exact cell, correctly rounded.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat
from operator import index, mul

from .chebyshev import QParameter
from .errors import ResourceLimitError
from .fusion import _check_table_labels, _integer_dims
from .precision import to_mpf, working_precision
from .spectrum import MAX_EXACT_TOTAL_BITS, _check_exact_bits, eigenvalue


# gap_constant_scan's cost ceilings besides MAX_LABELS, each about 3-5 s of
# scanning (2-vCPU x86_64): a float64 cell takes about 3 us; an exact cell at
# q = p/r works on integers of b = (alpha_max + gamma_max) log2(r^2) bits and
# takes about 2.5e-10 b^1.5 s (CPython multiplies them in about b^1.585),
# from b = 1.4e3 at q = 4/11 to b = 2e6 at a 4000-digit r.  The exact work
# ceiling bounds the worst case, in which the float screen passes every cell
# on to exact evaluation (200 x 5 scans at q = 4/11, 6/11, 11/12, 99/100
# and 1/1000 pass it 52-244 of their 44,851 cells)
MAX_SCAN_CELLS = 10**6
MAX_EXACT_SCAN_WORK = 2 * 10**10  # cells * b^1.5
# The scan's exact tables, about 2 top^2 log2(r^2) bits at q = p/r, need no
# ceiling of their own: with top + 1 cells at G = 0 and at least 7.5 top at
# G >= 1, MAX_EXACT_SCAN_WORK keeps them under 2.8e8 bits (35 MB at q = 1/2)


def _check_labels(alpha, beta, gamma):
    alpha, beta, gamma = index(alpha), index(beta), index(gamma)
    if alpha < 0 or beta < 0:
        raise ValueError("labels must be >= 0")
    if alpha + gamma < 0 or beta - gamma < 0:
        raise ValueError("shifted labels alpha+gamma and beta-gamma must be >= 0")
    return alpha, beta, gamma  # and so |gamma| <= max(alpha, beta)


def _beyond_double(a, b, g):
    return ValueError(f"the gap ratio at cell ({a}, {b}, {g}) is beyond the double range")


class _ExactCells:
    """Gap cells at rational q = p/r < 1 in integer arithmetic.

    With u = q^2 = n/d and E_j = d^j - n^j, r_k = C t_k for
    t_k = (k+1) n^(k+1) / E_(k+1) and C = 2pd / (r(d-n)).  The pair
    difference X(k, g) = t_(k+g) - t_k is kept as an integer (num, den), so
    lhs = C |X(a, g) - X(b-g, g)| costs three big multiplies, and rhs is an
    integer over n^s d^M with M = max(a, b) + |g| (s > 0 only where the
    exponent b + g of the shift term is negative).  A cell's ratio is then
    one int / int true division, which CPython rounds correctly: it equals
    float(Fraction(lhs) / Fraction(rhs)) without a single gcd.
    """

    def __init__(self, q, top):
        p, r = q.numerator, q.denominator
        n, d = p * p, r * r
        self.npw = npw = list(accumulate(repeat(n, top + 1), mul, initial=1))
        self.dpw = dpw = list(accumulate(repeat(d, top + 1), mul, initial=1))
        self.e = [dk - nk for dk, nk in zip(dpw, npw)]
        self.kn = [k * nk for k, nk in enumerate(npw)]  # t_k = kn[k+1] / e[k+1]
        self.c = (2 * p * d, r * (d - n))
        self.diffs = {}

    def _diff(self, k, g):
        """X(k, g) = t_(k+g) - t_k as (num, den)."""
        pair = self.diffs.get((k, g))
        if pair is None:
            kn, e, i, j = self.kn, self.e, k + g + 1, k + 1
            pair = self.diffs[k, g] = (kn[i] * e[j] - kn[j] * e[i], e[i] * e[j])
        return pair

    def _lhs(self, a, b, g):
        """lhs / C as (num, den), num signed."""
        (n1, d1), (n2, d2) = self._diff(a, g), self._diff(b - g, g)
        return n1 * d2 - n2 * d1, d1 * d2

    def _rhs(self, a, b, g):
        """rhs as (num, den) with den = n^s d^M."""
        npw, dpw, e = self.npw, self.dpw, self.e
        m = max(a, b) + abs(g)
        s = max(0, -b - g)
        num = 0
        for c, x, y in ((abs(g), a + g, b + g), (b, b, b - g), (a, a, a + g)):
            if c and x != y:  # c |u^x - u^y| = c n^x E_(y-x) / d^y for x < y
                x, y = min(x, y), max(x, y)
                num += c * npw[x + s] * e[y - x] * dpw[m - y]
        return num, npw[s] * dpw[m]

    def ratio(self, a, b, g):
        num, den = self._lhs(a, b, g)
        if not num:
            return 0.0
        rnum, rden = self._rhs(a, b, g)
        cn, cd = self.c
        try:
            return abs(num) * (cn * rden) / (den * (cd * rnum))
        except OverflowError:
            raise _beyond_double(a, b, g) from None


_SCALE = 192  # S and T of _FloatCells are integers in units of 2^-_SCALE: see there


class _FloatCells:
    """Gap cells at decimal q < 1 in float64, lhs divided by q^(2 lo) and
    rhs by q^(2m), lo and m the smallest exponents of nonzero terms.

    With u = q^2 and h(n) = n u^n/(1-u^n), r_a = c h(a+1) for c = 2q/(1-u).
    The four-term sum is a sum of K(n) = h(n) - 2h(n+1) + h(n+2) > 0 over a
    d-by-g parallelogram of n, and K(n) = u^n kt[n] with
    kt[n] = (1-u) B(n) / ((1-u^n)(1-u^(n+1))(1-u^(n+2))), B(n) = (1-u) S(n),
    S(n) = sum_i (1-u^i)(1-u^(n+1-i)), i = 1..n, by one recurrence of positive
    terms: S(n) = S(n-1) + (1-u)(T(n-1) + 1-u^n), T(n) = u(T(n-1) + 1-u^n),
    in integer units of 2^-192 with u = 1 - (1-u).  Each 1 - u^k, from expm1
    and above about 2^-53 as float(q) <= 1 - 2^-53, is exact in them, and
    S(n) >= n (1-u)^2 ends within 2^-85.  Nothing cancels: up to 19,999
    labels, q = 1e-150 to 1 - 1e-9, kt is within 7e-16 relative of its
    300-bit value at lq, and 1 - u^k is as close to q's as lq is to log q.
    """

    def __init__(self, q, top, lq):
        self.om = om = [-math.expm1(2 * k * lq) for k in range(top + 3)]
        one = 1 << _SCALE
        o1 = int(om[1] * one)
        u = one - o1
        s = t = 0
        self.kt = kt = [0.0]
        for n in range(1, top + 1):
            x = t + int(om[n] * one)
            s += o1 * x >> _SCALE
            t = u * x >> _SCALE
            kt.append(om[1] * (om[1] * (s / one)) / (om[n] * om[n + 1] * om[n + 2]))
        self.q, self.pw = q, [q ** (2 * k) for k in range(top + 2)]
        self.c = 2 * q / om[1]
        self.weights = {}

    def sides(self, a, b, g):
        pw, om = self.pw, self.om
        if g >= 0:
            s, x, y, e2, e3 = g, a + 1, b - g + 1, b - g, a
        else:
            s, x, y, e2, e3 = -g, b + 1, a + g + 1, b, a + g
        e1 = (a if a < b else b) + g
        if not a:  # the a-term vanishes; only nonzero terms may set m
            e3 = e2
        m = min(e1, e2, e3)
        lo, d = (x, y - x) if x < y else (y, x - y)
        w = self.weights.get((d, s))
        if w is None:  # u^t times the number of (i, j), i < d, j < s, with i + j = t
            w = self.weights[d, s] = [min(t + 1, d, s, d + s - 1 - t) * pw[t] for t in range(d + s - 1)]
        lhs = self.c * sum(map(mul, self.kt[lo:lo + len(w)], w))
        rhs = s * pw[e1 - m] * om[abs(a - b)] + (b * pw[e2 - m] + a * pw[e3 - m]) * om[s]
        return lhs, rhs, lo, m

    def _ratio(self, lhs, rhs, lo, m):
        """lhs/rhs of one cell's sides; inf beyond the double range."""
        if lhs == 0:
            return 0.0
        p = self.pw[abs(lo - m)]  # rhs > 0: its term of exponent m has a nonzero factor
        if p >= sys.float_info.min:
            return lhs * p / rhs if lo >= m else lhs / rhs / p
        with working_precision() as mp:  # q^(2(lo - m)) is outside the normal float range
            return float(mp.mpf(lhs) / rhs * mp.mpf(self.q) ** (2 * (lo - m)))

    def ratio(self, a, b, g):
        ratio = self._ratio(*self.sides(a, b, g))
        if math.isinf(ratio):
            raise _beyond_double(a, b, g)
        return ratio

    def bound(self, a, b, g):
        """An upper bound on the exact ratio at the rational q these tables
        stand for, when they come from _screen_cells."""
        return self._ratio(*self.sides(a, b, g)) * (1 + _SCREEN_EPS) + 2.0**-1000

    def gap(self, a, b, g):
        lhs, rhs, lo, m = sides = self.sides(a, b, g)
        with working_precision():  # the scales as mpf, so they neither underflow nor overflow
            q = to_mpf(self.q)
            return lhs * q ** (2 * lo), rhs * q ** (2 * m), self._ratio(*sides)


# The float64 screen of the rational gap scan: _FloatCells at float(q), with
# log q = -log1p((r-p)/p) from q = p/r itself (from log(float(q)), 1 - u^k
# would be off by about 2^-53/(1-q), 3e-8 at q = 1 - 1e-9).  A cell's ratio
# is built from sums, products and quotients of positive terms only, so their
# relative errors add: 1 - u^k within a few 2^-53, S(n) within 2^-85, powers
# q^(2k), k <= 2 top, with the 2^-53 of float(q) k-fold, an lhs sum of at
# most 2 top terms, and a few dozen roundings.  With top < MAX_LABELS that is
# below 2^-35 (the most seen is 1.4e-15, about 2^-49), so a screened ratio
# times 1 + _SCREEN_EPS bounds the exact one.  A ratio that underflows is off
# by at most 2^-1075 / rhs in absolute terms, and rhs >= 1 - u > 2^-54, hence
# the 2^-1000 added.  A cell whose bound is below the sup it must beat cannot
# beat it under the scan's strict >, so only the others are evaluated
# exactly.  Where float(q) is not a normal double below 1.0 (r > 2^53 with q
# within 2^-54 of 1, or q < 2.2e-308) there is no screen and every cell is
# evaluated exactly, as at decimal q every cell is evaluated in float64.
_SCREEN_EPS = 2.0**-30


def _log_q(p, r):
    """log(p/r) for 0 < p < r, to a relative 1e-16 however close p/r is to 1."""
    return -math.log1p((r - p) / p)


def _screen_cells(q, top):
    """Float64 cells for rational q = p/r with log q from the fraction (see
    _SCREEN_EPS); None where float(q) is not a normal double below 1.0."""
    if not sys.float_info.min <= float(q) < 1.0:
        return None
    return _FloatCells(float(q), top, _log_q(q.numerator, q.denominator))


def _cells(param, top):
    """The route for this q < 1, with tables for cells whose labels stay within top."""
    if isinstance(param.q, Fraction):
        return _ExactCells(param.q, top)
    q = float(param.q)
    if q == 1.0:
        raise ValueError(
            "this decimal q < 1 rounds to 1.0 as a double, where the float "
            "gap cells would divide by 1 - q^2 = 0; give q as a fraction"
        )
    # log q from q's exact value man 2^exp: log(float(q)) would carry
    # the 2^-53 of float(q) into 1 - u^k as 2^-53/(1-q)
    man, exp = param.q.man_exp
    return _FloatCells(q, top, _log_q(int(man), 1 << -exp))


class GapEvaluation(namedtuple("GapEvaluation", "alpha beta gamma lhs rhs ratio")):
    """One evaluation of the second-difference gap functional.

    ``ratio`` is lhs/rhs: 0 when both sides vanish, infinity when only the
    bound side does (at q = 1, where every power of q collapses to 1) and,
    at decimal q < 1, beyond the double range; there it is a float while lhs
    and rhs are mpf, so they neither underflow nor overflow.
    """

    __slots__ = ()


def _exact_gap(param, a, b, g):
    """(lhs, rhs, ratio) at rational q or q = 1, every one exact but an infinite ratio."""
    if param.q == 1:  # a decimal q = 1.0 too: delta_a = a(a+2)/6 and the bound 0 are exact
        param = QParameter(1, 2)
    labels = (a + g, a, b, b - g)
    _check_exact_bits(param.q, labels, MAX_EXACT_TOTAL_BITS)
    d = [eigenvalue(param, k) for k in labels]
    lhs = abs(d[0] - d[1] - d[2] + d[3])
    u = param.q ** 2
    rhs = (abs(g) * abs(u ** (a + g) - u ** (b + g)) + b * abs(u ** b - u ** (b - g))
           + a * abs(u ** a - u ** (a + g)))
    return lhs, rhs, (lhs / rhs if rhs else math.inf) if lhs else lhs


def gap(param: QParameter, alpha: int, beta: int, gamma: int) -> GapEvaluation:
    """Evaluate the gap functional at one index cell.

    Labels beyond MAX_LABELS, or exact eigenvalues beyond
    spectrum.MAX_EXACT_TOTAL_BITS at rational q, are a ResourceLimitError.
    """
    alpha, beta, gamma = _check_labels(alpha, beta, gamma)
    top = max(alpha, beta) + abs(gamma)
    _check_table_labels(top)
    if param.q == 1 or isinstance(param.q, Fraction):
        return GapEvaluation(alpha, beta, gamma, *_exact_gap(param, alpha, beta, gamma))
    return GapEvaluation(alpha, beta, gamma, *_cells(param, top).gap(alpha, beta, gamma))


class GapScan(namedtuple("GapScan", "param alpha_max gamma_max sup_ratio argmax "
                         "window_low_sup window_high_sup stable")):
    """Grid supremum of the gap ratio with a two-window stability check."""

    __slots__ = ()


def gap_constant_scan(param: QParameter, alpha_max: int, gamma_max: int) -> GapScan:
    """Scan the gap ratio over alpha, beta <= alpha_max, |gamma| <= gamma_max.

    beta is restricted to |beta - alpha| <= 2*gamma_max (the only window in
    which the functional arises downstream).  Stability compares the
    supremum over alpha in [alpha_max/2, alpha_max] with the one over
    [alpha_max/4, alpha_max/2): agreement within 10% is the finite-grid
    evidence that the ratio stays bounded.  q must be below 1 (at q = 1 the
    bound vanishes), and a cell ratio beyond the double range is a ValueError.
    Labels beyond MAX_LABELS, a grid of more than MAX_SCAN_CELLS cells, or
    at rational q more than MAX_EXACT_SCAN_WORK are a ResourceLimitError.
    """
    alpha_max, gamma_max = index(alpha_max), index(gamma_max)
    if alpha_max < 10:
        raise ValueError("alpha_max must be >= 10")
    if gamma_max < 0:
        raise ValueError("gamma_max must be >= 0")
    if param.q == 1:
        raise ValueError(
            "a gap scan needs q < 1: at q = 1 the power bound vanishes, so the "
            "ratio is infinite wherever the gap functional is not 0"
        )
    top = alpha_max + min(alpha_max, gamma_max)  # the largest label a cell reads, a + g
    _check_table_labels(top)
    # at most min(alpha_max, 4 gamma_max) + 1 betas and 2 min(alpha_max, gamma_max) + 1
    # gammas per alpha: 3.5% above the count at 200 x 5, twice it at gamma_max >= alpha_max
    cells = (
        (alpha_max + 1)
        * (min(alpha_max, 4 * gamma_max) + 1)
        * (2 * min(alpha_max, gamma_max) + 1)
    )
    if cells > MAX_SCAN_CELLS:
        raise ResourceLimitError(
            f"a gap scan of up to {cells} cells exceeds {MAX_SCAN_CELLS}"
        )
    if isinstance(param.q, Fraction):
        bits = top * (param.q.denominator ** 2).bit_length()
        work = cells * bits * math.isqrt(bits)
        if work > MAX_EXACT_SCAN_WORK:
            raise ResourceLimitError(
                f"an exact gap scan at q = {param.q} of up to {cells} cells on "
                f"{bits}-bit integers exceeds {MAX_EXACT_SCAN_WORK} cells * bits^1.5"
            )
    ratio_at = _cells(param, top).ratio
    screen = _screen_cells(param.q, top) if isinstance(param.q, Fraction) else None
    bound_at = screen.bound if screen else None  # None: every cell is evaluated
    sup = 0.0
    argmax = (0, 0, 0)
    half = alpha_max // 2
    quarter = alpha_max // 4
    low_sup = 0.0
    high_sup = 0.0
    for a in range(alpha_max + 1):
        b_lo = max(0, a - 2 * gamma_max)
        b_hi = min(alpha_max, a + 2 * gamma_max)
        for b in range(b_lo, b_hi + 1):
            # a + g >= 0 and b - g >= 0 also give |g| <= max(a, b)
            for g in range(max(-gamma_max, -a), min(gamma_max, b) + 1):
                # skip a cell that cannot beat its sup (low_sup and high_sup never exceed sup)
                if bound_at and bound_at(a, b, g) < (
                    sup if a < quarter else low_sup if a < half else high_sup
                ):
                    continue
                ratio = ratio_at(a, b, g)
                if ratio > sup:
                    sup = ratio
                    argmax = (a, b, g)
                if quarter <= a < half and ratio > low_sup:
                    low_sup = ratio
                if half <= a and ratio > high_sup:
                    high_sup = ratio
    stable = abs(high_sup - low_sup) <= 0.1 * max(high_sup, low_sup)
    return GapScan(param, alpha_max, gamma_max, sup, argmax, low_sup, high_sup, stable)


class HSCoefficient(namedtuple("HSCoefficient", "alpha beta gamma t gap_coefficient "
                               "step_coefficient damping")):
    """The three scalar factors of one summand in the coefficient bound."""

    __slots__ = ()


def hs_coefficient(param: QParameter, alpha, beta, gamma, t) -> HSCoefficient:
    """Gap factor, single-step eigenvalue difference, and damping exp(-t*delta_beta)."""
    alpha, beta, gamma = _check_labels(alpha, beta, gamma)
    if not 0 <= float(t) < math.inf:
        raise ValueError("t must be a finite number >= 0")
    ev = gap(param, alpha, beta, gamma)
    with working_precision() as mp:
        delta_b = eigenvalue(param, beta)
        step = abs(delta_b - eigenvalue(param, beta - gamma))
        damping = mp.exp(-to_mpf(t) * to_mpf(delta_b))
    return HSCoefficient(alpha, beta, gamma, float(t), ev.lhs, step, damping)


class HSCertificate(namedtuple("HSCertificate", "param t alpha_max terms compressed_terms "
                               "partial_sums ratio_value verdict")):
    """Summability evidence for the squared Hilbert-Schmidt norm series.

    ``terms`` is the exact-term series n_a^2 (q^(2a) + q^a)^2 exp(-2ta);
    ``compressed_terms`` drops the (1 + q^a)^2 factor, the form the ratio
    test addresses.  The verdict is a three-way call with explicit margins,
    never a proof.
    """

    __slots__ = ()


def hs_certificate(
    param: QParameter,
    t,
    alpha_max: int,
    *,
    margin: float = 0.01,
    tail_floor: float = 1e-3,
) -> HSCertificate:
    """Ratio-test certificate for the summability of the HS-norm series.

    Divergent when the ratio-test value at the probe exceeds 1 + margin or
    the last term has not decayed below tail_floor times the early-term
    scale; finite when the ratio-test value is below 1 - margin; otherwise
    inconclusive.
    """
    alpha_max = index(alpha_max)
    if alpha_max < 20:
        raise ValueError("alpha_max must be >= 20")
    if not 0 <= float(t) < math.inf:
        raise ValueError("t must be a finite number >= 0")
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    if not 0 < tail_floor < 1:
        raise ValueError("tail_floor must lie in (0, 1)")
    n = _integer_dims(param.N, alpha_max)
    terms = []
    compressed = []
    with working_precision() as mp:
        qm = param.q_mpf()
        tm = to_mpf(t)
        qa = mp.mpf(1)
        for a in range(alpha_max + 1):
            damp = mp.exp(-2 * tm * a)
            n2 = mp.mpf(n[a]) ** 2
            terms.append(float(n2 * (qa * qa + qa) ** 2 * damp))
            compressed.append(float(n2 * qa * qa * damp))
            qa = qa * qm
        ratio_value = float(
            mp.exp(2 * mp.log(mp.mpf(n[alpha_max])) / alpha_max)
            * qm ** 2
            * mp.exp(-2 * tm)
        )
    if ratio_value >= 1 + margin or terms[-1] >= tail_floor * max(terms[1:11]):
        verdict = "divergent"
    elif ratio_value <= 1 - margin:
        verdict = "finite"
    else:
        verdict = "inconclusive"
    return HSCertificate(
        param, float(t), alpha_max, tuple(terms), tuple(compressed),
        tuple(accumulate(terms)), ratio_value, verdict,
    )


class RegimeClassification(namedtuple("RegimeClassification", "kac ighs ghs")):
    """Summability regime flags for one parameter point.

    ``ighs`` (damped summability for every t > 0) holds throughout the
    admissible range; ``ghs`` (summability already at t = 0) needs q
    strictly below the Kac point q0; ``kac`` flags q = q0 itself.
    """

    __slots__ = ()


def regime_classify(param: QParameter) -> RegimeClassification:
    ghs = float(param.q) < float(param.q0) - 1e-9
    return RegimeClassification(kac=param.is_kac, ighs=True, ghs=ghs)
