"""Spectral data of the central heat semigroup on a free orthogonal quantum group.

The generator acts diagonally on matrix coefficients of the irreducible of
label alpha, with eigenvalue delta_alpha = U'_alpha(N_q)/U_alpha(N_q), which
_deltas evaluates in closed form.  Everything here is a pure function of a
QParameter; rational q gives exact rational eigenvalues.  At decimal q
every value is a Decimal rounded to the digits of the working precision
(chebyshev._context), within an ulp of the exact value, and so is every
transcendental value (an exponential, a logarithm, a power of q) at any
q.  A decimal q of 1.0 is held as Fraction(1) (QParameter), and its values
are exact.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from decimal import DivisionByZero, Overflow, localcontext
from itertools import accumulate, count, islice
from operator import index, sub

from .chebyshev import QParameter, _context, _decimal, _nq, _values, poly_value
from .errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from .fusion import MAX_LABELS, _check_table_labels, _integer_dims, dims
from .precision import precision_bits

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
    the bracket cancels to about (1-u)^3 of its terms, so it is formed from
    q's exact ratio num/den in integers scaled by 2^wide, wide =
    3 log2(1/(1-u)) + 16 bits over the working precision, which multiply and
    divide faster than Decimals that wide.
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
    # q = num / den exactly, so 1 - u = gap / dd with dd = den^2
    num, den = q.as_integer_ratio()
    dd = den * den
    gap = dd - num * num
    wide = bits + 3 * (dd.bit_length() - gap.bit_length()) + 16
    one, u = 1 << wide, (num * num << wide) // dd
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
            scale = scales[s] = mid.divide(num * den, gap << wide - s)
        yield narrow.multiply(scale, t >> s)
        w = w * u >> wide


def eigenvalue(param: QParameter, alpha: int):
    """Generator eigenvalue on the irreducible of label alpha.

    Exact (a Fraction) when q is rational; a Decimal otherwise.  The value
    is 0 at alpha = 0 and strictly increasing in alpha.  An exact value of
    more than MAX_EXACT_DELTA_BITS is a ResourceLimitError.
    """
    alpha = index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _check_exact_bits(param.q, [alpha], MAX_EXACT_DELTA_BITS)
    return next(_deltas(param.q, alpha))


def gap_limit(param: QParameter):
    """Limit of consecutive eigenvalue gaps, 1/sqrt(N_q^2 - 4) = q/(1 - q^2),
    since sqrt(N_q^2 - 4) = 1/q - q: exact at rational q, and at decimal q
    rounded once from q's exact value, so nothing cancels near q = 1.

    Raises DegenerateRegimeError at q = 1, where the gaps grow linearly
    instead of converging.
    """
    q = param.q
    if q == 1:
        raise DegenerateRegimeError("eigenvalue gaps diverge at q = 1")
    if isinstance(q, Fraction):
        return q / (1 - q * q)
    num, den = q.as_integer_ratio()
    return _context(precision_bits()).divide(num * den, den * den - num * num)


@functools.lru_cache(maxsize=64)  # a sweep over t or alpha reads one q's log
def _log(q, bits):
    """log q in the context of bits, from q rounded with as many more bits as
    its denominator has: they cover the 1/(1 - q) <= den by which log q
    magnifies a rounding of q near 1."""
    num, den = q.as_integer_ratio()
    wide = _context(bits + den.bit_length())
    return _context(bits).plus(wide.ln(wide.divide(num, den)))


def semigroup_coeff(param: QParameter, alpha: int, t):
    """Interpolation coefficient (U_alpha(q^t + q^-t) / U_alpha(N_q))^3, a Decimal.

    Lies in (0, 1] for t in (-1, 1] and equals 1 at t = 1.  Values of t
    above 1 are accepted so the derivative at the endpoint can be probed,
    up to where q^-t leaves the decimal exponent range (a ValueError).
    Each U_alpha takes alpha steps, so alpha is held under MAX_LABELS.
    """
    alpha = index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _check_table_labels(alpha)
    if param.q == 1:
        raise DegenerateRegimeError("interpolation coefficients need q < 1")
    bits = precision_bits()
    with localcontext(_context(bits)) as ctx:
        tm = _decimal(t, ctx)
        if not (tm.is_finite() and tm > -1):
            raise ValueError("t must be a finite number > -1")
        try:
            qt = (tm * _log(param.q, bits)).exp()
            return (poly_value(alpha, qt + 1 / qt) / poly_value(alpha, _nq(param.q, ctx))) ** 3
        except (DivisionByZero, Overflow):
            raise ValueError(f"q^-t at t = {t} is beyond the decimal exponent range") from None


def semigroup_rate(param: QParameter, alpha: int):
    """d/dt of semigroup_coeff at t = 1: 3 (q - 1/q) log(q) times the
    eigenvalue, a Decimal, with q - 1/q rounded once from q's exact value."""
    if param.q == 1:
        raise DegenerateRegimeError("interpolation coefficients need q < 1")
    bits = precision_bits()
    num, den = param.q.as_integer_ratio()
    with localcontext(_context(bits)) as ctx:
        delta = _decimal(eigenvalue(param, alpha), ctx)
        return 3 * delta * _log(param.q, bits) * ctx.divide(num * num - den * den, num * den)


def multiplier(param: QParameter, alpha: int, t):
    """Semigroup multiplier exp(-t * eigenvalue) for t >= 0, a Decimal."""
    with localcontext(_context(precision_bits())) as ctx:
        tm = _decimal(t, ctx)
        if not (tm.is_finite() and tm >= 0):
            raise ValueError("t must be a finite number >= 0")
        return (-tm * _decimal(eigenvalue(param, alpha), ctx)).exp()


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
    for alpha, delta, n in zip(count(), _deltas(param.q), _values(param.N)):
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
    table = dims(param, alpha_max)
    deltas = list(islice(_deltas(param.q), len(table.n)))
    minus = sub if isinstance(param.q, Fraction) else _context(precision_bits()).subtract
    gaps = map(minus, deltas, deltas[:1] + deltas[:-1])  # delta_0 - delta_0 = 0 first
    return list(map(SpectralRow, count(), table.n, table.qdim, deltas, gaps))


def dirichlet_form(param: QParameter, vector: Mapping):
    """Quadratic form sum of eigenvalue * |amplitude|^2 over the support.

    ``vector`` maps (alpha, i, j) with 1-based matrix indices to an
    amplitude; indices outside 1..n_alpha, or an amplitude that is not
    finite, raise InvalidVectorError.  Each label adds one term.  The total
    is exact when q and every amplitude are rational, and a Decimal
    otherwise; an exact total whose eigenvalues pass MAX_EXACT_TOTAL_BITS is
    a ResourceLimitError.
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
    parts = {}  # the real and imaginary parts of each label's amplitudes
    for key in sorted(vector):
        a, i, j = key
        if not (1 <= i <= n[a] and 1 <= j <= n[a]):
            raise InvalidVectorError(f"matrix indices {key!r} outside 1..{n[a]}")
        x = vector[key]
        if not hasattr(x, "imag"):
            raise TypeError(f"amplitude {x!r} at {key!r} is not a number")
        parts.setdefault(a, []).extend((x.real, x.imag))
    if isinstance(param.q, Fraction) and all(
            isinstance(v, (int, Fraction)) for vs in parts.values() for v in vs):
        _check_exact_bits(param.q, parts, MAX_EXACT_TOTAL_BITS)
        return sum(eigenvalue(param, a) * sum(v * v for v in vs) for a, vs in parts.items())
    with localcontext(_context(precision_bits())) as ctx:
        parts = {a: [_decimal(v, ctx) for v in vs] for a, vs in parts.items()}
        if not all(v.is_finite() for vs in parts.values() for v in vs):
            raise InvalidVectorError("every amplitude must be a finite number")
        return sum(_decimal(eigenvalue(param, a), ctx) * sum(v * v for v in vs)
                   for a, vs in parts.items())


class ResolventCoeff(namedtuple("ResolventCoeff", "alpha eps resolvent regularized")):
    """Resolvent and regularized-generator coefficients at one label."""

    __slots__ = ()


def resolvent_coeff(param: QParameter, alpha: int, eps) -> ResolventCoeff:
    """Coefficients 1/(1 + eps*delta) and delta/(1 + eps*delta), eps > 0: exact
    when q and eps are rational, Decimals otherwise."""
    with localcontext(_context(precision_bits())) as ctx:
        e = _decimal(eps, ctx)
        if not (e.is_finite() and e > 0):
            raise ValueError("eps must be a finite number > 0")
        delta = eigenvalue(param, alpha)
        if not (isinstance(delta, Fraction) and isinstance(eps, (int, Fraction))):
            eps, delta = e, _decimal(delta, ctx)
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
