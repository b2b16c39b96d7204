"""Spectral data of the central heat semigroup on a free orthogonal quantum group.

The generator acts diagonally on matrix coefficients of the irreducible of
label alpha, with eigenvalue delta_alpha = U'_alpha(N_q)/U_alpha(N_q), which
_deltas evaluates in closed form.  Everything here is a pure function of a
QParameter; rational q gives exact rational eigenvalues.  At decimal q the
kernels (_deltas, _rows) give Decimals rounded to the digits of the working
precision, and the public functions decode them to mpf at that precision
(fusion._mpfs), so each is within an ulp of the exact value.  A decimal q
of 1.0 is held as Fraction(1) (QParameter), and its values are exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from itertools import accumulate, count, islice
from operator import index, sub

from .chebyshev import QParameter, _context, _values, poly_value
from .errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from .fusion import MAX_LABELS, _check_table_labels, _integer_dims, _mpfs, _table
from .precision import _is_mp, _precision_for, precision_bits, to_mpf, working_precision

# exact eigenvalues at q = p/r < 1, about (alpha+1) log2(r^2) bits each
# (2-vCPU x86_64): one takes 2.0 s at 1e7 bits (q = 1/10^307, alpha = 5,000),
# and an amenability probe's, their bits summed, 0.7 s at 9e6 (q = 1/10^307,
# n_max = 2.5e8); a sum of them, a Dirichlet total or a gap cell's four, pays
# gcds that grow with their bits summed: 1.0 s at 8.6e5 (q = 1/10^150, labels 0..40)
MAX_EXACT_DELTA_BITS = 10**7
MAX_EXACT_TOTAL_BITS = 1.2 * 10**6


def _check_exact_bits(q, labels, ceiling):
    """Refuse exact eigenvalues at q = p/r < 1 on labels whose bits, summed, pass ceiling."""
    exact = isinstance(q, Fraction) and q != 1
    bits = sum(a + 1 for a in labels) * (q.denominator ** 2).bit_length() if exact else 0
    if bits > ceiling:
        raise ResourceLimitError(f"exact eigenvalues at q = {q} up to label {max(labels)} "
                                 f"take about {bits} bits, above {ceiling:.3g}")


def _deltas(q, alpha=0):
    """Yield delta_alpha, delta_(alpha+1), ... in closed form, carrying w forward:
    with u = q^2 and w = u^(a+1), delta_a = q/(1-u) [(a+1)(1+w)/(1-w) - (1+u)/(1-u)],
    and a(a+2)/6 at q = 1.  Exact at rational q; at decimal q each is a Decimal
    rounded to the digits of the working precision (chebyshev._context).  There
    the bracket cancels to about (1-u)^3 of its terms, so it is formed in
    integers scaled by 2^wide, wide = 3 log2(1/(1-u)) + 16 bits over the
    working precision, which multiply and divide faster than Decimals that wide.
    """
    if isinstance(q, Fraction):
        if q == 1:
            for a in count(alpha):
                yield Fraction(a * (a + 2), 6)
        p, r = q.numerator, q.denominator  # n = p^2, d = r^2: w = n^(a+1) / d^(a+1)
        n, d = p * p, r * r
        npow, dpow = n ** (alpha + 1), d ** (alpha + 1)
        for a in count(alpha):
            yield Fraction(p * r * ((a + 1) * (dpow + npow) * (d - n) - (d + n) * (dpow - npow)),
                           (d - n) ** 2 * (dpow - npow))
            npow, dpow = npow * n, dpow * d
    bits = precision_bits()
    narrow = _context(bits)
    # q = man 2^-k exactly, so 1 - u = (4^k - man^2) / 4^k
    man, k = q.man_exp[0], -q.man_exp[1]
    gap = (1 << 2 * k) - man * man
    wide = bits + 3 * (1 + 2 * k - gap.bit_length()) + 16
    one, shift = 1 << wide, wide - 2 * k
    u = man * man << shift if shift >= 0 else man * man >> -shift
    w, b = one, ((one + u) << wide) // (one - u)
    for e in bin(alpha + 1)[2:]:  # w = u^(alpha+1), square and multiply
        w = w * w >> wide
        if e == "1":
            w = w * u >> wide
    scales, mid = {}, _context(bits + 32)
    for a in count(alpha):
        t = (a + 1) * (((one + w) << wide) // (one - w)) - b
        s = max(t.bit_length() - bits - 40, 0)  # t's leading bits + 40 as one Decimal
        scale = scales.get(s)
        if scale is None:  # q / (1-u) / 2^(wide - s), exact until this one rounding
            scale = scales[s] = mid.divide(man << k, gap << wide - s)
        yield narrow.multiply(scale, t >> s)
        w = w * u >> wide


def eigenvalue(param: QParameter, alpha: int):
    """Generator eigenvalue on the irreducible of label alpha.

    Exact (a Fraction) when q is rational; an mpf otherwise.  The value is
    0 at alpha = 0 and strictly increasing in alpha.  An exact value of more
    than MAX_EXACT_DELTA_BITS is a ResourceLimitError.
    """
    alpha = index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _check_exact_bits(param.q, [alpha], MAX_EXACT_DELTA_BITS)
    return next(_mpf_deltas(param, alpha))


def _mpf_deltas(param, alpha=0):
    """_deltas as the public functions give them: mpfs at decimal q."""
    deltas = _deltas(param.q, alpha)
    return _mpfs(deltas) if _is_mp(param.q) else deltas


def gap_limit(param: QParameter):
    """Limit of consecutive eigenvalue gaps, 1/sqrt(N_q^2 - 4).

    Raises DegenerateRegimeError at q = 1, where the gaps grow linearly
    instead of converging.
    """
    with working_precision() as mp:
        nq = to_mpf(param.nq)
        if nq <= 2:
            raise DegenerateRegimeError("eigenvalue gaps diverge at q = 1")
        return 1 / mp.sqrt(nq * nq - 4)


def semigroup_coeff(param: QParameter, alpha: int, t):
    """Interpolation coefficient (U_alpha(q^t + q^-t) / U_alpha(N_q))^3.

    Lies in (0, 1] for t in (-1, 1] and equals 1 at t = 1.  Values of t
    above 1 are accepted so the derivative at the endpoint can be probed.
    Each U_alpha takes alpha steps, so alpha is held under MAX_LABELS.
    """
    alpha = index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _check_table_labels(alpha)
    if param.q == 1:
        raise DegenerateRegimeError("interpolation coefficients need q < 1")
    with working_precision() as mp:
        tm = to_mpf(t)
        if not -1 < tm < mp.inf:
            raise ValueError("t must be a finite number > -1")
        qt = mp.power(param.q_mpf(), tm)
        num = poly_value(alpha, qt + 1 / qt)
        den = poly_value(alpha, to_mpf(param.nq))
        return (num / den) ** 3


def semigroup_rate(param: QParameter, alpha: int):
    """d/dt of semigroup_coeff at t = 1: 3 (q - 1/q) log(q) times the eigenvalue."""
    if param.q == 1:
        raise DegenerateRegimeError("interpolation coefficients need q < 1")
    with working_precision() as mp:
        qm = param.q_mpf()
        delta = to_mpf(eigenvalue(param, alpha))
        return 3 * delta * mp.log(qm) * (qm - 1 / qm)


def multiplier(param: QParameter, alpha: int, t):
    """Semigroup multiplier exp(-t * eigenvalue) for t >= 0."""
    with working_precision() as mp:
        tm = to_mpf(t)
        if not 0 <= tm < mp.inf:
            raise ValueError("t must be a finite number >= 0")
        return mp.exp(-tm * to_mpf(eigenvalue(param, alpha)))


# cesaro_sum's ceiling on k: 10^7 terms take about 3 s (0.27 s per 10^6 for
# the exp2x probe, 2-vCPU x86_64)
MAX_CESARO_TERMS = 10**7


def cesaro_sum(func: Callable[[float], float], k: int) -> float:
    """Finite-k value of k(-P(0) + (1/k) sum_{l=k+1}^{2k} P(1/l)).

    Converges to log(2) * P'(0) as k grows for P smooth near 0.  A k above
    MAX_CESARO_TERMS is a ResourceLimitError.
    """
    k = index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_CESARO_TERMS:
        raise ResourceLimitError(f"a Cesaro sum of k = {k} terms exceeds {MAX_CESARO_TERMS}")
    tail = math.fsum(float(func(1.0 / l)) for l in range(k + 1, 2 * k + 1))
    return tail - k * float(func(0.0))


class SpectralDatum(namedtuple("SpectralDatum", "alpha delta n multiplicity")):
    """One eigenvalue with its label, dimension and L2 multiplicity."""

    __slots__ = ()


def spectral_stream(param: QParameter) -> Iterator[SpectralDatum]:
    """Yield SpectralDatum for alpha = 0, 1, 2, ... indefinitely, each in
    O(1) arithmetic operations (see _deltas)."""
    for alpha, delta, n in zip(count(), _mpf_deltas(param), _values(param.N)):
        yield SpectralDatum(alpha, delta, n, n * n)


def spectral_data(param: QParameter, alpha_max: int) -> list[SpectralDatum]:
    alpha_max = index(alpha_max)
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    _check_table_labels(alpha_max, param.q)
    return list(islice(spectral_stream(param), alpha_max + 1))


class SpectralRow(namedtuple("SpectralRow", "alpha n qdim delta gap")):
    """One row of the tabulated spectrum: label, dimensions, eigenvalue, gap."""

    __slots__ = ()


def spectral_rows(param: QParameter, alpha_max: int) -> list[SpectralRow]:
    """Tabulate label, dimension, quantum dimension, eigenvalue and gap."""
    rows = _rows(param, alpha_max)
    if not _is_mp(param.q):
        return rows
    alpha, n, *numbers = zip(*rows)  # each column of numbers decoded in one pass
    return list(map(SpectralRow, alpha, n, *(_mpfs(column) for column in numbers)))


def _rows(param, alpha_max):
    """spectral_rows with the kernels' numbers: Decimals at decimal q."""
    table = _table(param, alpha_max)
    deltas = list(islice(_deltas(param.q), alpha_max + 1))
    minus = _context(precision_bits()).subtract if _is_mp(param.q) else sub
    gaps = map(minus, deltas, deltas[:1] + deltas[:-1])  # delta_0 - delta_0 = 0 first
    return list(map(SpectralRow, count(), table.n, table.qdim, deltas, gaps))


def dirichlet_form(param: QParameter, vector: Mapping):
    """Quadratic form sum of eigenvalue * |amplitude|^2 over the support.

    ``vector`` maps (alpha, i, j) with 1-based matrix indices to an
    amplitude; indices outside 1..n_alpha raise InvalidVectorError.  Each
    label adds one term; an exact total whose eigenvalues pass
    MAX_EXACT_TOTAL_BITS is a ResourceLimitError.
    """
    if not vector:
        return 0
    for key in vector:
        if not (isinstance(key, tuple) and len(key) == 3):
            raise InvalidVectorError(f"expected (alpha, i, j) key, got {key!r}")
        a, i, j = key
        if not all(isinstance(v, int) for v in (a, i, j)) or a < 0:
            raise InvalidVectorError(f"bad index triple {key!r}")
    n = _integer_dims(param.N, max(k[0] for k in vector))
    weights = {}
    for key in sorted(vector):
        a, i, j = key
        if not (1 <= i <= n[a] and 1 <= j <= n[a]):
            raise InvalidVectorError(f"matrix indices {key!r} outside 1..{n[a]}")
        w = weights.get(a, 0)
        with _precision_for(w, vector[key]):
            weights[a] = w + abs(vector[key]) ** 2
    exact = [a for a, w in weights.items() if isinstance(w, (int, Fraction))]  # exact terms
    _check_exact_bits(param.q, exact, MAX_EXACT_TOTAL_BITS)
    total = 0
    for a, w in weights.items():
        delta = eigenvalue(param, a)
        with _precision_for(total, delta, w):
            total = total + delta * w
    return total


class ResolventCoeff(namedtuple("ResolventCoeff", "alpha eps resolvent regularized")):
    """Resolvent and regularized-generator coefficients at one label."""

    __slots__ = ()


def resolvent_coeff(param: QParameter, alpha: int, eps) -> ResolventCoeff:
    """Coefficients 1/(1 + eps*delta) and delta/(1 + eps*delta), eps > 0."""
    if not float(eps) > 0:
        raise ValueError("eps must be > 0")
    delta = eigenvalue(param, alpha)
    with _precision_for(delta, eps):
        den = 1 + eps * delta
        return ResolventCoeff(index(alpha), float(eps), 1 / den, delta / den)


class AmenabilityReport(namedtuple(
        "AmenabilityReport", "n_max warmup threshold checkpoints ratios envelope "
        "liminf_estimate satisfied verdict note", defaults=("numerical evidence",))):
    """Finite-sample probe of eigenvalue growth against log of the count.

    ``ratios[i]`` is lambda_n / log(n) at checkpoint n = checkpoints[i],
    where lambda_n enumerates the eigenvalues with their L2 multiplicities.
    ``envelope`` is the suffix minimum of the ratios, and the verdict holds
    when the envelope stays above ``threshold`` on the top octave of
    checkpoints.  This is numerical evidence about an asymptotic statement,
    never a proof.
    """

    __slots__ = ()


def amenability_criterion(
    param: QParameter,
    n_max: int,
    *,
    warmup: int = 1000,
    threshold: float = 50.0,
) -> AmenabilityReport:
    """Probe whether lambda_n / log(n) diverges for the model param.

    Checkpoints double from the warm-up index up to n_max.  The label where
    each lands is found from the integer multiplicities n_a^2 alone, and the
    eigenvalue is evaluated at those labels only.  More than MAX_LABELS
    labels, or exact eigenvalues at them past MAX_EXACT_DELTA_BITS summed,
    are a ResourceLimitError raised before any eigenvalue.
    """
    n_max = index(n_max)
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    warmup = index(warmup)
    if warmup < 2:
        raise ValueError("warmup must be >= 2")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be a finite number")
    checkpoints = [min(warmup, n_max)]
    while checkpoints[-1] * 2 <= n_max:
        checkpoints.append(checkpoints[-1] * 2)
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)

    walk = enumerate(accumulate(n * n for n in _values(param.N)))
    label, covered = next(walk)
    labels = []
    for cp in checkpoints:
        while covered < cp:
            label, covered = next(walk)
            if label >= MAX_LABELS:
                raise ResourceLimitError(f"n_max = {n_max} needs over {MAX_LABELS} labels")
        labels.append(label)
    distinct = set(labels)
    # their bits summed under the one-value ceiling: a gcd's cost grows faster than its bits
    _check_exact_bits(param.q, distinct, MAX_EXACT_DELTA_BITS)
    delta = {a: float(next(_deltas(param.q, a))) for a in distinct}
    ratios = tuple(delta[a] / math.log(cp) for a, cp in zip(labels, checkpoints))
    envelope = tuple(accumulate(reversed(ratios), min))[::-1]
    window = [i for i, cp in enumerate(checkpoints) if 2 * cp >= n_max]
    liminf_estimate = min(ratios[i] for i in window)
    satisfied = liminf_estimate > threshold
    return AmenabilityReport(
        n_max=n_max,
        warmup=warmup,
        threshold=float(threshold),
        checkpoints=tuple(checkpoints),
        ratios=ratios,
        envelope=envelope,
        liminf_estimate=liminf_estimate,
        satisfied=satisfied,
        verdict="satisfied" if satisfied else "not-satisfied",
    )
