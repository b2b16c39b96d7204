"""Fusion data for the irreducibles of a free orthogonal quantum group.

Irreducible representations are labelled by naturals.  The tensor product
of labels ``a`` and ``b`` decomposes multiplicity-free along
``|a-b|, |a-b|+2, ..., a+b``, so a plain ordered list is a faithful
description of the fusion channels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index

from .chebyshev import QParameter, _values
from .errors import ResourceLimitError
from .precision import _is_mp, _precision_for, precision_bits, working_precision

MAX_LABELS = 20_000  # per dimension table or spectral probe; 10^4 labels take seconds

# exact q-number tables at q = p/r < 1: label a's terms have about a log2(pr)
# bits and the gcds of a Fraction step cost about bits^1.7, so labels 0..top take
# about (top + 1) (top log2(pr))^1.7 units; at the ceiling spectrum rows, their
# slowest reader, take 1.9-3.1 s (4/11 at 2114 labels, 1/10^150 at 130; 2-vCPU x86_64)
MAX_EXACT_TABLE_WORK = 2 * 10**10


def _check_table_labels(top, q=None):
    """Refuse tables for labels 0..top past MAX_LABELS and, when q = p/r < 1,
    exact q-number tables past MAX_EXACT_TABLE_WORK, before their first step."""
    if top >= MAX_LABELS:
        raise ResourceLimitError(f"labels 0..{top} exceed {MAX_LABELS} labels")
    if isinstance(q, Fraction) and q != 1:
        work = (top + 1) * (top * (q.numerator * q.denominator).bit_length()) ** 1.7
        if work > MAX_EXACT_TABLE_WORK:
            raise ResourceLimitError(f"exact q-number tables for labels 0..{top} at q = {q} take "
                                     f"{work:.3g} units of work, above {MAX_EXACT_TABLE_WORK:.3g}")


def fuse(alpha: int, beta: int) -> list[int]:
    """Fusion channels of the tensor product of irreducibles alpha and beta.

    Returns the ordered list ``[|alpha-beta|, |alpha-beta|+2, ..., alpha+beta]``;
    every channel appears with multiplicity one.
    """
    alpha, beta = index(alpha), index(beta)
    if alpha < 0 or beta < 0:
        raise ValueError("irreducible labels must be >= 0")
    return list(range(abs(alpha - beta), alpha + beta + 1, 2))


@dataclass(frozen=True)
class DimensionTable:
    """Classical and quantum dimensions of the irreducibles up to a cutoff.

    ``n[a]`` is the exact integer dimension, satisfying N*n[a] = n[a+1] + n[a-1]
    with n[0] = 1 and n[1] = N.  ``qdim[a]`` is the quantum dimension
    [a+1]_q, exact rational when q is a Fraction.
    """

    param: QParameter
    n: tuple[int, ...]
    qdim: tuple


def _integer_dims(N: int, top: int) -> tuple[int, ...]:
    """n_0..n_top of dims alone, under MAX_LABELS: no q-dimension is formed."""
    _check_table_labels(top)
    return tuple(islice(_values(N), top + 1))


def dims(param: QParameter, alpha_max: int) -> DimensionTable:
    """Build the dimension table for labels 0..alpha_max; cached, and for
    floating q keyed on the working precision too."""
    alpha_max = index(alpha_max)
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    _check_table_labels(alpha_max, param.q)
    bits = precision_bits() if _is_mp(param.q) else None
    return _dims(param, alpha_max, bits)


@functools.lru_cache(maxsize=None)
def _dims(param, alpha_max, bits):
    with _precision_for(param.q):  # at precision_bits(), the bits of the key
        qdim = tuple(islice(_values(param.nq), alpha_max + 1))
    return DimensionTable(param, _integer_dims(param.N, alpha_max), qdim)


# callers that inspect the table cache (perfbench/tracer.py) ask dims for it
dims.cache_info = _dims.cache_info


@dataclass(frozen=True)
class GrowthProbe:
    """Finite-cutoff probe of the exponential growth of dimensions.

    ``limsup_product`` approximates lim sup n_a^{1/a} * q, which is 1 in the
    Kac regime q = q0 and strictly smaller for q < q0.
    """

    alpha_probe: int
    q0: float
    n_root: float
    limsup_product: float


def growth_rate(param: QParameter, alpha_probe: int) -> GrowthProbe:
    alpha_probe = index(alpha_probe)
    if alpha_probe < 1:
        raise ValueError("alpha_probe must be >= 1")
    n = _integer_dims(param.N, alpha_probe)[alpha_probe]
    with working_precision() as mp:
        root = mp.exp(mp.log(mp.mpf(n)) / alpha_probe)
        product = root * param.q_mpf()
    return GrowthProbe(alpha_probe, float(param.q0), float(root), float(product))


@dataclass(frozen=True)
class FusionCheck:
    """Result of checking both dimension sum rules on one channel list."""

    param: QParameter
    alpha: int
    beta: int
    channels: list[int]
    n_product: int
    n_sum: int
    qdim_product: object
    qdim_sum: object
    classical_ok: bool
    quantum_ok: bool


def fusion_check(param: QParameter, alpha: int, beta: int) -> FusionCheck:
    """Verify n_a*n_b and [a+1][b+1] against the sums over fusion channels.

    The classical rule is checked in exact integer arithmetic.  The quantum
    rule is exact for rational q; for floating q the comparison allows a
    relative slack of 1e-12.
    """
    channels = fuse(alpha, beta)
    table = dims(param, alpha + beta)
    n_product = table.n[alpha] * table.n[beta]
    n_sum = sum(table.n[g] for g in channels)
    with _precision_for(table.qdim[alpha]):
        qdim_product = table.qdim[alpha] * table.qdim[beta]
        qdim_sum = sum(table.qdim[g] for g in channels)
        if isinstance(qdim_product, Fraction):
            quantum_ok = qdim_product == qdim_sum
        else:
            quantum_ok = abs(qdim_product - qdim_sum) <= 1e-12 * abs(qdim_product)
    return FusionCheck(
        param,
        alpha,
        beta,
        channels,
        n_product,
        n_sum,
        qdim_product,
        qdim_sum,
        n_product == n_sum,
        quantum_ok,
    )
