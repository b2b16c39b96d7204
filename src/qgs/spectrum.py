"""Spectral data of the central heat semigroup on a free orthogonal quantum group.

The generator acts diagonally on matrix coefficients of the irreducible of
label alpha, with eigenvalue delta_alpha = U'_alpha(N_q)/U_alpha(N_q), which
_deltas evaluates in closed form.  Everything here is a pure function of a
QParameter; rational q gives exact rational eigenvalues, floating q is
evaluated in mpmath at the configured working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice
from operator import index
from typing import Callable, Iterator, Mapping

from .chebyshev import QParameter, _values, poly_value
from .errors import DegenerateRegimeError, InvalidVectorError, ResourceLimitError
from .fusion import MAX_LABELS, _check_table_labels, _integer_dims, dims
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
    and a(a+2)/6 at q = 1.  Exact at rational q.  At decimal q the bracket cancels
    to about (1-u)^3 of its terms, so they are formed 3 log2(1/(1-u)) + 16 bits
    wider than the working precision of the first step, and rounded to it.
    """
    if q == 1:
        for a in count(alpha):
            delta = Fraction(a * (a + 2), 6)
            if _is_mp(q):
                with working_precision():
                    delta = to_mpf(delta)
            yield delta
    elif isinstance(q, Fraction):  # n = p^2, d = r^2: w = n^(a+1) / d^(a+1)
        p, r = q.numerator, q.denominator
        n, d = p * p, r * r
        npow, dpow = n ** (alpha + 1), d ** (alpha + 1)
        for a in count(alpha):
            yield Fraction(p * r * ((a + 1) * (dpow + npow) * (d - n) - (d + n) * (dpow - npow)),
                           (d - n) ** 2 * (dpow - npow))
            npow, dpow = npow * n, dpow * d
    else:
        from mpmath.libmp import fone, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_sub

        # log2(1/(1-u)) from q's exact value man 2^exp: 1 - u = (4^-exp - man^2) / 4^-exp
        man, exp = q.man_exp
        bits = precision_bits()
        wide = bits + 3 * (1 - 2 * exp - ((1 << -2 * exp) - man * man).bit_length()) + 16
        with working_precision(wide) as mp:
            u = q * q
            w, b, c = u ** (alpha + 1), (1 + u) / (1 - u), q / (1 - u)
        u, w, b, c = u._mpf_, w._mpf_, b._mpf_, c._mpf_
        for a in count(alpha):  # on raw mpf values rounded to nearest: no context per label
            z = mpf_div(mpf_add(fone, w, wide, "n"), mpf_sub(fone, w, wide, "n"), wide, "n")
            t = mpf_sub(mpf_mul_int(z, a + 1, wide, "n"), b, wide, "n")
            yield mp.make_mpf(mpf_mul(c, t, bits, "n"))
            w = mpf_mul(w, u, wide, "n")


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
    return next(_deltas(param.q, alpha))


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
    """
    alpha = index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if param.q == 1:
        raise DegenerateRegimeError("interpolation coefficients need q < 1")
    with working_precision() as mp:
        tm = to_mpf(t)
        if tm <= -1:
            raise ValueError("t must be > -1")
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
        if tm < 0:
            raise ValueError("t must be >= 0")
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


@dataclass(frozen=True)
class SpectralDatum:
    """One eigenvalue with its label, dimension and L2 multiplicity."""

    alpha: int
    delta: object
    n: int
    multiplicity: int


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


@dataclass(frozen=True)
class SpectralRow:
    """One row of the tabulated spectrum: label, dimensions, eigenvalue, gap."""

    alpha: int
    n: int
    qdim: object
    delta: object
    gap: object


def spectral_rows(param: QParameter, alpha_max: int) -> list[SpectralRow]:
    """Tabulate label, dimension, quantum dimension, eigenvalue and gap."""
    table = dims(param, alpha_max)
    rows = []
    prev = None
    for d in spectral_data(param, alpha_max):
        with _precision_for(d.delta):
            gap = 0 * d.delta if prev is None else d.delta - prev
        rows.append(SpectralRow(d.alpha, d.n, table.qdim[d.alpha], d.delta, gap))
        prev = d.delta
    return rows


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


@dataclass(frozen=True)
class ResolventCoeff:
    """Resolvent and regularized-generator coefficients at one label."""

    alpha: int
    eps: float
    resolvent: object
    regularized: object


def resolvent_coeff(param: QParameter, alpha: int, eps) -> ResolventCoeff:
    """Coefficients 1/(1 + eps*delta) and delta/(1 + eps*delta), eps > 0."""
    if not float(eps) > 0:
        raise ValueError("eps must be > 0")
    delta = eigenvalue(param, alpha)
    with _precision_for(delta, eps):
        den = 1 + eps * delta
        return ResolventCoeff(index(alpha), float(eps), 1 / den, delta / den)


@dataclass(frozen=True)
class AmenabilityReport:
    """Finite-sample probe of eigenvalue growth against log of the count.

    ``ratios[i]`` is lambda_n / log(n) at checkpoint n = checkpoints[i],
    where lambda_n enumerates the eigenvalues with their L2 multiplicities.
    ``envelope`` is the suffix minimum of the ratios, and the verdict holds
    when the envelope stays above ``threshold`` on the top octave of
    checkpoints.  This is numerical evidence about an asymptotic statement,
    never a proof.
    """

    n_max: int
    warmup: int
    threshold: float
    checkpoints: tuple[int, ...]
    ratios: tuple[float, ...]
    envelope: tuple[float, ...]
    liminf_estimate: float
    satisfied: bool
    verdict: str
    note: str = "numerical evidence"


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
    delta = {a: float(eigenvalue(param, a)) for a in distinct}
    ratios = tuple(delta[a] / math.log(cp) for a, cp in zip(labels, checkpoints))
    envelope = []
    running = math.inf
    for r in reversed(ratios):
        running = min(running, r)
        envelope.append(running)
    envelope = tuple(reversed(envelope))
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
