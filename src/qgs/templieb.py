"""Temperley-Lieb operators on qubit chains and the isometries built from them.

The loop parameter is d = q + 1/q.  Each generator acts on a pair of
adjacent sites as the rank-one operator |w><w| for the defining vector
w = sqrt(q)|01> - (1/sqrt(q))|10>, with site 1 stored in the most
significant bit.  Every generator keeps the weight of a basis word (its
number of 1s), so the image of the top-label projection p_n holds exactly
one unit vector per weight k = 0..n: the q-Dicke vector v_k(w) ~ q^(-inv(w)),
inv(w) the number of pairs i < j with w_i = 0 and w_j = 1.  These are the
weight vectors of the spin-n/2 module of U_q(sl_2) (Frenkel-Khovanov, Duke
Math. J. 1997); they are written down directly from the inversion counts
in O(2^n * n), with no eigenvalue problem.  Only this orthonormal image
basis is kept: a fusion isometry on n sites costs O(2^n * n^2) to build
and is stored as its coefficients in the weight bases, and the two
bracketings of a double fusion contract those coefficients, so no 2^n
vector is formed for them.

All public arrays are float64 and read-only.  A fusion overlap that is not
a scalar multiple of the identity raises NumericalDegradationError with
its residual.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .chebyshev import q_number
from .errors import NumericalDegradationError, ResourceLimitError
from .fusion import fuse
from .precision import to_mpf, working_precision

MAX_STRANDS = 14
DENSE_LIMIT = 12

_GRAM_TOL = 1e-8

_JW_CACHE = {}
_ISO_CACHE = {}


def _qfloat(param):
    return float(param.q_mpf())


def _defining_vector(q):
    root = math.sqrt(q)
    return np.array([0.0, root, -1.0 / root, 0.0])


def _apply_pair(mat4, i, n, block):
    """Apply a two-site operator at sites (i, i+1) to the columns of block."""
    left = 2 ** (i - 1)
    tail = block.shape[1:]
    shaped = block.reshape(left, 4, -1)
    out = np.einsum("ab,xby->xay", mat4, shaped)
    return out.reshape((2 ** n,) + tail)


def _weight_diag(param, n):
    """Diagonal of the n-fold product of diag(1/q, q), in site order."""
    q = _qfloat(param)
    site = np.array([1.0 / q, q])
    d = np.ones(1)
    for _ in range(n):
        d = np.kron(d, site)
    return d


class TLRep:
    """Temperley-Lieb generators e_1 .. e_{n-1} on an n-site qubit chain."""

    def __init__(self, param, n, e4):
        self.param = param
        self.n = n
        self.delta = float(param.nq)
        self._e4 = e4

    def _check_index(self, i):
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for {self.n} sites")

    def apply(self, i, block):
        """e_i applied to a vector or to the columns of a matrix."""
        self._check_index(i)
        return _apply_pair(self._e4, i, self.n, np.asarray(block, dtype=float))

    def generator_matrix(self, i):
        self._check_index(i)
        if self.n > DENSE_LIMIT:
            raise ResourceLimitError(
                f"dense generator needs 4^{self.n} entries; limit is {DENSE_LIMIT} sites"
            )
        left = np.eye(2 ** (i - 1))
        right = np.eye(2 ** (self.n - i - 1))
        return np.kron(np.kron(left, self._e4), right)


def tl_rep(param, n):
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one site")
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"{n} sites exceeds the {MAX_STRANDS}-site limit")
    w = _defining_vector(_qfloat(param))
    return TLRep(param, n, np.outer(w, w))


def _dicke_basis(q, n):
    """Unit q-Dicke vectors v_k(w) ~ q^(-inv(w)), one column per weight k = 0..n.

    inv(w) counts the pairs i < j with w_i = 0 and w_j = 1.  Each column is
    stored as q^(k(n-k) - inv(w)), whose entries lie in (0, 1], and then
    normalised, so no power of 1/q can overflow.
    """
    words = np.arange(2 ** n)
    weight = np.zeros(2 ** n, dtype=np.int64)
    inv = np.zeros(2 ** n, dtype=np.int64)
    for site in range(n):  # last site first: weight counts the ones to its right
        bit = (words >> site) & 1
        inv += (1 - bit) * weight
        weight += bit
    basis = np.zeros((2 ** n, n + 1))
    basis[words, weight] = q ** (weight * (n - weight) - inv).astype(float)
    return basis / np.linalg.norm(basis, axis=0)


class JWProjection:
    """Top-label projection on n sites, stored through an orthonormal image basis.

    Column k of the basis is the q-Dicke vector of weight k, so every weight
    operator of the chain is diagonal on it.
    """

    def __init__(self, param, n, basis):
        self.param = param
        self.n = n
        self.basis = basis
        self.rank = basis.shape[1]

    def matrix(self):
        if self.n > DENSE_LIMIT:
            raise ResourceLimitError(
                f"dense projection needs 4^{self.n} entries; limit is {DENSE_LIMIT} sites"
            )
        return self.basis @ self.basis.T

    def quantum_trace(self):
        """Trace against the product of diag(1/q, q); equals [n+1] up to roundoff."""
        d = _weight_diag(self.param, self.n)
        return float(np.einsum("x,xj,xj->", d, self.basis, self.basis))


def jones_wenzl(param, n):
    n = operator.index(n)
    if n < 0:
        raise ValueError("label must be nonnegative")
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"label {n} exceeds the {MAX_STRANDS}-site limit")
    key = (param, n)
    hit = _JW_CACHE.get(key)
    if hit is None:
        basis = _dicke_basis(_qfloat(param), n)
        basis.setflags(write=False)
        hit = _JW_CACHE[key] = JWProjection(param, n, basis)
    return hit


def weight_matrix(param, alpha):
    """diag(q^(2k - alpha)) on the image basis: trace [alpha+1], identity at q = 1."""
    return np.diag(_qfloat(param) ** np.arange(-alpha, alpha + 1, 2.0))


def _nested_cups(q, m):
    """Chain-ordered vector of m nested arcs on 2m adjacent sites."""
    w2 = _defining_vector(q).reshape(2, 2)
    cup = np.ones(1)
    for _ in range(m):
        cup = np.einsum("ab,i->aib", w2, cup).reshape(-1)
    return cup


@dataclass(frozen=True, eq=False)
class FusionIsometry:
    """Isometric embedding of the label-gamma image into the alpha (x) beta chain.

    ``compressed`` holds its coefficients in the weight bases, shaped
    (alpha+1, beta+1, gamma+1): entry (i, j, k) is the coefficient of
    basis vector i of p_alpha times basis vector j of p_beta in the image
    of target vector k.  ``V``, the chain matrix (B_alpha (x) B_beta) C, is
    built from it on each read.
    """

    param: object
    alpha: int
    beta: int
    gamma: int
    compressed: np.ndarray

    @property
    def V(self):
        ba = jones_wenzl(self.param, self.alpha).basis
        bb = jones_wenzl(self.param, self.beta).basis
        v = np.einsum("ai,ijk->ajk", ba, self.compressed)
        v = np.einsum("bj,ajk->abk", bb, v).reshape(2 ** (self.alpha + self.beta), -1)
        v.setflags(write=False)
        return v


def fusion_isometry(param, alpha, beta, gamma):
    alpha = operator.index(alpha)
    beta = operator.index(beta)
    gamma = operator.index(gamma)
    if min(alpha, beta, gamma) < 0:
        raise ValueError("labels must be nonnegative")
    if alpha + beta > MAX_STRANDS:
        raise ResourceLimitError(
            f"{alpha + beta} sites exceeds the {MAX_STRANDS}-site limit"
        )
    if gamma not in fuse(alpha, beta):
        raise ValueError(f"label {gamma} is not a channel of {alpha} and {beta}")
    key = (param, alpha, beta, gamma)
    cached = _ISO_CACHE.get(key)
    if cached is not None:
        return cached

    m = (alpha + beta - gamma) // 2
    ba = jones_wenzl(param, alpha).basis
    bb = jones_wenzl(param, beta).basis
    bg = jones_wenzl(param, gamma).basis
    cup = _nested_cups(_qfloat(param), m)
    split = bg.reshape(2 ** (alpha - m), 2 ** (beta - m), gamma + 1)
    t = np.einsum("xyk,c->xcyk", split, cup).reshape(2 ** alpha, 2 ** beta, gamma + 1)
    comp = np.einsum("ai,abk->ibk", ba, t)
    comp = np.einsum("bj,ibk->ijk", bb, comp)
    flat = comp.reshape((alpha + 1) * (beta + 1), gamma + 1)
    gram = flat.T @ flat
    scale = float(np.trace(gram)) / (gamma + 1)
    if scale <= 0:
        raise NumericalDegradationError("fusion overlap collapsed", residual=scale)
    gram_residual = float(np.max(np.abs(gram - scale * np.eye(gamma + 1)))) / scale
    if gram_residual > _GRAM_TOL:
        raise NumericalDegradationError(
            "fusion overlap is not a scalar multiple of the identity",
            residual=gram_residual,
        )
    comp = comp / math.sqrt(scale)
    comp.setflags(write=False)
    return _ISO_CACHE.setdefault(key, FusionIsometry(param, alpha, beta, gamma, comp))


def _check_channel(gamma, left, right):
    if gamma < 0 or gamma not in fuse(left, right):
        raise ValueError(f"label {gamma} is not a channel of {left} and {right}")


def _pentagon_sides(param, alpha, r, s, k, l):
    """The two bracketings of the double fusion in the weight bases.

    Both chain maps factor through the isometry B_s (x) B_alpha (x) B_r, so
    each side is kept as its (s+1, alpha+1, r+1, alpha+k+l+1) coefficient
    array: entry (i, a, j, c) pairs target vector c with the product of
    basis vectors i, a and j.
    """
    for label in (alpha, r, s, alpha + l, alpha + k, alpha + k + l):
        if label < 0:
            raise ValueError("labels and shifted labels must be nonnegative")
    _check_channel(alpha + l, alpha, r)
    _check_channel(alpha + k + l, s, alpha + l)
    _check_channel(alpha + k, s, alpha)
    _check_channel(alpha + k + l, alpha + k, r)
    if s + alpha + r > MAX_STRANDS:
        raise ResourceLimitError(
            f"{s + alpha + r} sites exceeds the {MAX_STRANDS}-site limit"
        )

    inner_a = fusion_isometry(param, alpha, r, alpha + l).compressed
    outer_a = fusion_isometry(param, s, alpha + l, alpha + k + l).compressed
    inner_b = fusion_isometry(param, s, alpha, alpha + k).compressed
    outer_b = fusion_isometry(param, alpha + k, r, alpha + k + l).compressed
    return (np.einsum("arm,smc->sarc", inner_a, outer_a),
            np.einsum("sam,mrc->sarc", inner_b, outer_b))


def _aligned_difference(a_side, b_side, align_phase):
    if align_phase and np.sum(a_side * b_side) < 0:
        return a_side + b_side
    return a_side - b_side


def pentagon_defect(param, alpha, r, s, k, l, align_phase=True):
    """Operator norm of the gap between the two bracketings of a double fusion.

    The phase freedom of each isometry is fixed, when align_phase is set,
    by the scalar of modulus one closest to the two sides in the
    Frobenius sense; for real matrices that is a sign.  Both sides map the
    weight-j basis vector of the target into the same weight sector of the
    chain, so the columns of their difference are orthogonal and its norm is
    the largest column norm; the product basis is orthonormal, so that norm
    is taken on the weight-basis coefficients.
    """
    a_side, b_side = _pentagon_sides(param, alpha, r, s, k, l)
    diff = _aligned_difference(a_side, b_side, align_phase)
    return float(np.max(np.linalg.norm(diff.reshape(-1, diff.shape[3]), axis=0)))


def _reference(param, exponent, alpha):
    """q^exponent, refused outside the normal double range: a ratio to an
    infinite, zero or subnormal (precision-losing) reference says nothing."""
    q = _qfloat(param)
    try:
        value = q ** exponent
    except OverflowError:  # q < 1 to a negative power
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(
            f"q^{exponent} at q = {q!r}, alpha = {alpha} is outside the normal double range"
        )
    return value


def pentagon_bound(param, alpha, r, k):
    """Decay reference q^(alpha + (k - r)/2) for the bracketing gap."""
    return _reference(param, alpha + (k - r) / 2, alpha)


@dataclass(frozen=True)
class CommutatorEstimate:
    alpha: int
    r: int
    s: int
    k: int
    l: int
    weighted_defect: float
    reference: float
    ratio: float
    constant: int
    passed: bool


def _weighted_defect(param, alpha, k, l):
    """Worst bracketing-gap pairing against weighted basis vectors, r = s = 1.

    Each probe is a product of basis vectors scaled by their weights; the
    weights are diagonal on the basis, so they cancel against the probe's
    norm and only the unit basis vectors remain.  The pairing with a unit
    product basis vector is the coefficient that the sides already hold,
    so the defect is their largest norm over the target axis.
    """
    a_side, b_side = _pentagon_sides(param, alpha, 1, 1, k, l)
    diff = _aligned_difference(a_side, b_side, align_phase=True)
    return float(np.max(np.linalg.norm(diff, axis=3)))


def commutator_estimate(param, alpha, r, s, k, l):
    """Weighted bracketing-gap estimate for single-letter outer factors."""
    if r != 1 or s != 1:
        raise ValueError("estimate is implemented for r = s = 1")
    if k not in (-1, 1) or l not in (-1, 1):
        raise ValueError("shifts k and l must be +1 or -1")
    if alpha + k < 0 or alpha + l < 0 or alpha + k + l < 0:
        raise ValueError("shifted labels must stay nonnegative")
    reference = _reference(param, alpha, alpha)
    if (k, l) == (-1, -1):
        parts = [
            commutator_estimate(param, alpha, 1, 1, kk, ll)
            for kk, ll in ((1, 1), (1, -1), (-1, 1))
        ]
        weighted = sum(p.weighted_defect for p in parts)
        constant = 6
    else:
        weighted = _weighted_defect(param, alpha, k, l)
        constant = 2
    ratio = weighted / reference
    return CommutatorEstimate(
        alpha=alpha,
        r=1,
        s=1,
        k=k,
        l=l,
        weighted_defect=weighted,
        reference=reference,
        ratio=ratio,
        constant=constant,
        passed=ratio <= constant + 1e-9,
    )


def commutator_suite(param, alphas):
    """Estimates over all admissible sign pairs for each label in alphas."""
    rows = []
    for alpha in alphas:
        for k, l in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if alpha + k < 0 or alpha + l < 0 or alpha + k + l < 0:
                continue
            rows.append(commutator_estimate(param, alpha, 1, 1, k, l))
    return rows


@dataclass(frozen=True)
class JWReportRow:
    n: int
    rank: int
    idempotency: float
    annihilation: float
    trace_error: object  # an mpf: |tr - [n+1]_q| may lie beyond the double range
    trace_rel_error: float


def jw_report(param, n_max):
    """Per-level diagnostics for the top-label projections up to n_max sites."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("need at least one site")
    # tr and [n+1]_q are q^-n times the trace against diag(1, q^2)^(x)n (entries
    # in (0, 1]) and sum_k q^(2k): their relative error needs no power of 1/q
    site = np.array([1.0, _qfloat(param) ** 2])
    diag = np.ones(1)
    rows = []
    for n in range(1, n_max + 1):
        jw = jones_wenzl(param, n)
        b = jw.basis
        idem = float(np.linalg.norm(b.T @ b - np.eye(n + 1), 2))
        rep = tl_rep(param, n)
        ann = 0.0
        for i in range(1, n):
            sv = np.linalg.svd(rep.apply(i, b), compute_uv=False)
            ann = max(ann, float(sv[0]))
        diag = np.kron(diag, site)
        target = float(np.sum(site[1] ** np.arange(n + 1)))
        rel = abs(float(np.einsum("x,xj,xj->", diag, b, b)) - target) / target
        with working_precision():
            trace_error = rel * to_mpf(q_number(n + 1, param))
        rows.append(
            JWReportRow(
                n=n,
                rank=jw.rank,
                idempotency=idem,
                annihilation=ann,
                trace_error=trace_error,
                trace_rel_error=rel,
            )
        )
    return rows
