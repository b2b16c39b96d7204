"""Fusion data for the irreducibles of a free orthogonal quantum group.

Irreducible representations are labelled by naturals.  The tensor product
of labels ``a`` and ``b`` decomposes multiplicity-free along
``|a-b|, |a-b|+2, ..., a+b``, so a plain ordered list is a faithful
description of the fusion channels.  Quantum dimensions and their fusion
sums are exact at rational q, and at decimal q Decimals rounded to the
digits of the working precision (chebyshev._context).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from operator import index

from .chebyshev import QParameter, _context, _nq, _values
from .errors import ResourceLimitError
from .precision import precision_bits

MAX_LABELS = 20_000  # per dimension table or spectral probe; 10^4 labels take seconds

# exact q-number tables at q = p/r < 1: label a's terms have about a log2(pr)
# bits and the gcds of a Fraction step cost about bits^1.7, so labels 0..top take
# about (top + 1) (top log2(pr))^1.7 units; at the ceiling spectrum rows, their
# slowest reader, take 1.9-3.1 s (4/11 at 2114 labels, 1/10^150 at 130; 2-vCPU x86_64)
MAX_EXACT_TABLE_WORK = 2 * 10**10
# a fusion grid to label A: (A+1)(A+2)(A+3)/6 channel sums, weighted at q = p/r by (b/600)^2
# once their q-dimensions of b = A log2(pr) bits pass 600, as Fraction gcds grow like b^2
MAX_GRID_WORK = 201 * 202 * 203 * 600**2


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


class DimensionTable(namedtuple("DimensionTable", "param n qdim")):
    """Classical and quantum dimensions of the irreducibles up to a cutoff.

    ``n[a]`` is the exact integer dimension, satisfying N*n[a] = n[a+1] + n[a-1]
    with n[0] = 1 and n[1] = N.  ``qdim[a]`` is the quantum dimension
    [a+1]_q, exact rational when q is a Fraction.
    """

    __slots__ = ()


def _integer_dims(N: int, top: int) -> tuple[int, ...]:
    """n_0..n_top of dims alone, under MAX_LABELS: no q-dimension is formed."""
    _check_table_labels(top)
    return tuple(islice(_values(N), top + 1))


@functools.lru_cache(maxsize=64)  # a fusion_check sweep of 0..40 reuses 41 tables
def _dims(param, alpha_max, bits):
    """At decimal q the recurrence runs on q + 1/q formed from q's exact value
    and rounded once, in the decimal context of bits."""
    if bits is None:
        qdim = tuple(islice(_values(param.nq), alpha_max + 1))
    else:
        with localcontext(_context(bits)) as ctx:
            qdim = tuple(islice(_values(_nq(param.q, ctx)), alpha_max + 1))
    return DimensionTable(param, _integer_dims(param.N, alpha_max), qdim)


def dims(param: QParameter, alpha_max: int) -> DimensionTable:
    """Build the dimension table for labels 0..alpha_max, with Decimal
    q-dimensions at decimal q; the last 64 are cached, and for decimal q
    keyed on the working precision too."""
    alpha_max = index(alpha_max)
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    _check_table_labels(alpha_max, param.q)
    return _dims(param, alpha_max, None if isinstance(param.q, Fraction) else precision_bits())


# callers that inspect the table cache (perfbench/tracer.py) ask dims for it
dims.cache_info = _dims.cache_info


class GrowthProbe(namedtuple("GrowthProbe", "alpha_probe q0 n_root limsup_product")):
    """Finite-cutoff probe of the exponential growth of dimensions.

    ``limsup_product`` approximates lim sup n_a^{1/a} * q, which is 1 in the
    Kac regime q = q0 and strictly smaller for q < q0.
    """

    __slots__ = ()


def growth_rate(param: QParameter, alpha_probe: int) -> GrowthProbe:
    alpha_probe = index(alpha_probe)
    if alpha_probe < 1:
        raise ValueError("alpha_probe must be >= 1")
    n = _integer_dims(param.N, alpha_probe)[alpha_probe]
    root = math.exp(math.log(n) / alpha_probe)  # math.log reads an int of any size
    return GrowthProbe(alpha_probe, float(param.q0), root, root * float(param.q))


_SLACK = Decimal(1e-12)  # the quantum rule's relative slack at decimal q, as the double


class FusionCheck(namedtuple("FusionCheck", "param alpha beta channels n_product n_sum "
                             "qdim_product qdim_sum classical_ok quantum_ok")):
    """Result of checking both dimension sum rules on one channel list."""

    __slots__ = ()


def _fusion_checks(param: QParameter, cells) -> list[FusionCheck]:
    """The FusionCheck of each cell (a, b) of nonnegative labels, all from one table of labels
    0..max(a+b): each channel sum is a difference of step-2 prefix sums, and each product is
    formed apart.  A table past the ceilings is refused before any channel list is built."""
    _check_table_labels(max(a + b for a, b in cells), param.q)
    channels = [fuse(a, b) for a, b in cells]
    table = dims(param, max(c[-1] for c in channels))
    checks = []
    with localcontext(_context(precision_bits())):  # the same steps on Fractions and Decimals
        g0 = min(c[0] for c in channels)  # s[g+2] = s[g] + x[g] from s[g0] = s[g0+1] = 0
        step = 1 if any((c[0] - g0) % 2 for c in channels) else 2  # only the parities read
        n_sums, qdim_sums = [0] * (len(table.n) + 2), [0] * (len(table.n) + 2)
        for g in range(g0, len(table.n), step):
            n_sums[g + 2] = n_sums[g] + table.n[g]
            qdim_sums[g + 2] = qdim_sums[g] + table.qdim[g]
        for (a, b), chan in zip(cells, channels):  # sums over g = |a-b|, ..., a+b
            lo, hi = chan[0], chan[-1] + 2
            n_product, n_sum = table.n[a] * table.n[b], n_sums[hi] - n_sums[lo]
            qdim_product, qdim_sum = table.qdim[a] * table.qdim[b], qdim_sums[hi] - qdim_sums[lo]
            quantum_ok = (qdim_product == qdim_sum if isinstance(qdim_product, Fraction)
                          else abs(qdim_product - qdim_sum) <= _SLACK * abs(qdim_product))
            checks.append(FusionCheck(param, a, b, chan, n_product, n_sum, qdim_product,
                                      qdim_sum, n_product == n_sum, quantum_ok))
    return checks


def fusion_check(param: QParameter, alpha: int, beta: int) -> FusionCheck:
    """Verify n_a*n_b and [a+1][b+1] against the sums over fusion channels.

    The classical rule is checked in exact integer arithmetic.  The quantum
    rule is exact for rational q; for decimal q the comparison allows a
    relative slack of 1e-12.
    """
    alpha, beta = index(alpha), index(beta)
    if alpha < 0 or beta < 0:
        raise ValueError("irreducible labels must be >= 0")
    return _fusion_checks(param, [(alpha, beta)])[0]


def fusion_grid(param: QParameter, alpha_max: int) -> list[FusionCheck]:
    """fusion_check on every cell alpha <= beta <= alpha_max, row by row, all
    read from one table of labels 0..2 alpha_max.  A grid past MAX_GRID_WORK
    is a ResourceLimitError raised before the table is built."""
    alpha_max = index(alpha_max)
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    q, top = param.q, alpha_max + 1
    bits = alpha_max * (q.numerator * q.denominator).bit_length() if isinstance(q, Fraction) else 0
    if top * (top + 1) * (top + 2) * max(bits, 600) ** 2 > MAX_GRID_WORK:
        raise ResourceLimitError(f"a fusion grid of alpha_max {alpha_max} on {bits}-bit "
                                 "q-dimensions takes more work than alpha_max 200 at decimal q")
    return _fusion_checks(param, [(a, b) for a in range(top) for b in range(a, top)])
