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
in O(2^n * n), with no eigenvalue problem.  jw_report checks them one weight
sector at a time in plain floats, each level's sectors grown from the last.

A fusion isometry is kept as its coefficients in these weight bases, from
their closed form as one alternating sum of symmetric q-binomials
(Kirillov-Reshetikhin 1989).  The bracketings of a double fusion contract
those coefficients with no 2^n vector and no numpy, n log2(1/q) bits above
the working precision (_bits), as their gap of size q^n on n sites is a
difference of terms of size 1.  These kernels run on decimal.Decimal, in
one context per call of as many digits as those bits need (_context), and
import no mpmath; only the public fusion_isometry decodes its coefficients
to mpf.  The chain objects (generators, projections, weight matrices, an
isometry's chain matrix V) are float64 and read-only, hold at most
MAX_STRANDS sites, and are the only code here that imports numpy, when
called.

Nothing is kept between calls.  Each public call builds one q-binomial
table up to the largest label it needs and a memo of the isometries it
reads (_isometries), and drops both on return.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from types import MappingProxyType

from .chebyshev import _values
from .errors import NumericalDegradationError, ResourceLimitError
from .precision import precision_bits

MAX_STRANDS = 14
DENSE_LIMIT = 12

# The closed form's one ceiling, in table entries plus coefficient summands
# weighted by 1 + (bits/1000)^1.5 (_check_work).  On decimal.Decimal a unit
# takes 0.5-1 us at a few hundred bits and 3.3 us at 17,000 (2-vCPU x86_64):
# lemma65 at q = 0.5 to its largest alpha, 104, takes 0.5 s, the
# 118 (x) 118 -> 118 isometry at q = 0.9 0.5 s, a pentagon at alpha = 49,
# q = 1e-100 3.3 s
MAX_FUSION_WORK = 10**6
_GRAM_TOL = 1e-8  # relative spread of the column norms, which Schur's lemma makes equal

_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# the weighted defects, each bounded by 2, that make up an estimate
_PARTS = {(k, l): ((k, l),) for k, l in _SIGNS[:3]} | {(-1, -1): _SIGNS[:3]}


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
        import numpy as np

        self._check_index(i)
        block = np.asarray(block, dtype=float)
        out = np.einsum("ab,xby->xay", self._e4, block.reshape(2 ** (i - 1), 4, -1))
        return out.reshape(block.shape)

    def generator_matrix(self, i):
        import numpy as np

        self._check_index(i)
        if self.n > DENSE_LIMIT:
            raise ResourceLimitError(
                f"dense generator needs 4^{self.n} entries; limit is {DENSE_LIMIT} sites"
            )
        left = np.eye(2 ** (i - 1))
        right = np.eye(2 ** (self.n - i - 1))
        return np.kron(np.kron(left, self._e4), right)


def _check_strands(n):
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"{n} sites exceeds the {MAX_STRANDS}-site limit")


def tl_rep(param, n):
    import numpy as np

    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one site")
    _check_strands(n)
    root = math.sqrt(float(param.q))
    w = np.array([0.0, root, -1.0 / root, 0.0])  # the defining vector
    return TLRep(param, n, np.outer(w, w))


def _dicke_basis(q, n):
    """Unit q-Dicke vectors v_k(w) ~ q^(-inv(w)), one column per weight k = 0..n.

    inv(w) counts the pairs i < j with w_i = 0 and w_j = 1.  Each column is
    stored as q^(k(n-k) - inv(w)), whose entries lie in (0, 1], and then
    normalised, so no power of 1/q can overflow.
    """
    import numpy as np

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
        """Trace against the product of diag(1/q, q), which is q^(2k-n) on the
        words of weight k where column k lives; equals [n+1] up to roundoff."""
        import numpy as np

        with np.errstate(over="ignore"):  # inf, not inf * 0, at tiny q
            weights = float(self.param.q) ** np.arange(-self.n, self.n + 1, 2.0)
        return float(weights @ np.einsum("xj,xj->j", self.basis, self.basis))


def jones_wenzl(param, n):
    n = operator.index(n)
    if n < 0:
        raise ValueError("label must be nonnegative")
    _check_strands(n)
    basis = _dicke_basis(float(param.q), n)
    basis.setflags(write=False)
    return JWProjection(param, n, basis)


def weight_matrix(param, alpha):
    """diag(q^(2k - alpha)) on the image basis: trace [alpha+1], identity at q = 1."""
    alpha = operator.index(alpha)
    if alpha < 0:
        raise ValueError("label must be nonnegative")
    _check_strands(alpha)
    import numpy as np

    matrix = np.diag(float(param.q) ** np.arange(-alpha, alpha + 1, 2.0))
    matrix.setflags(write=False)
    return matrix


def _bits(param, sites):
    """Width for weight-basis data on `sites` sites: their defects are of
    size q^sites, differences of terms of size 1, so they need that many bits
    beyond the working precision, and 32 more absorb the sums' roundoff;
    past the float range, an infinite width that _check_work refuses."""
    try:
        return precision_bits() + math.ceil(-sites * math.log2(float(param.q))) + 32
    except OverflowError:
        return math.inf


def _check_work(bits, isometries):
    """Refuse closed-form work past MAX_FUSION_WORK before any is done: about
    3 top^2 table entries, and (alpha+1)(gamma+1) coefficients per isometry
    of at most min(m, alpha-m, beta-m) + 1 summands, m = (alpha+beta-gamma)/2."""
    top = max(max(labels) for labels in isometries)
    terms = 3 * (top + 1) ** 2 + sum(  # min(m, alpha-m, beta-m) = (a+b+g)/2 - max(a, b, g)
        (a + 1) * (g + 1) * ((a + b + g) // 2 - max(a, b, g) + 1) for a, b, g in isometries)
    try:
        work = terms * (1 + (bits / 1000) ** 1.5)
    except OverflowError:  # past the float range, and so past the ceiling
        work = math.inf
    if work > MAX_FUSION_WORK:
        raise ResourceLimitError(f"fusion coefficients for labels up to {top} at {bits} bits "
                                 f"take about {work:.3g} units of work, above {MAX_FUSION_WORK}")


def _context(bits):
    """The decimal context of a kernel at bits: the digits that hold bits,
    plus 2, rounded half-even, with an exponent range no power of q leaves."""
    return Context(prec=math.ceil(bits * math.log10(2)) + 2, rounding=ROUND_HALF_EVEN,
                   Emax=MAX_EMAX, Emin=MIN_EMIN)


def _tables(param, bits, labels):
    """q-number tables for the (alpha, beta, gamma) of labels, up to their
    largest label top: q, binom[n][k] = S(n, k) = [n]!/([k]! [n-k]!) for
    n = 0..top, [n] = U_(n-1)(q + 1/q), root[n][k] = sqrt(q^(k(n-k)) / S(n, k))
    for each n among labels and an empty memo of powers of q, all Decimals
    formed from the exact q at bits (QParameter.nq and fusion.dims are at
    the working precision)."""
    top = max(map(max, labels))
    num, den = param.q.as_integer_ratio()
    with localcontext(_context(bits)):
        q = Decimal(num) / den
        numbers = _values(q + 1 / q)
        nums = [0 * q] + [next(numbers) for _ in range(top)]  # [0], [1], ..., [top]
        binom = [[q ** 0]]
        for n in range(1, top + 1):
            binom.append([q ** 0] + [binom[-1][k - 1] * nums[n] / nums[k] for k in range(1, n + 1)])
        root = {n: [(q ** (k * (n - k)) / b).sqrt() for k, b in enumerate(binom[n])]
                for n in set().union(*labels)}
    return q, binom, root, {}


def _closed_form(tables, alpha, beta, gamma):
    """One list of ((i, j), c) per target weight k of the alpha (x) beta ->
    gamma isometry, i + j = k + m, m = (alpha+beta-gamma)/2, not normalised;
    run in the decimal context of the tables.  c(i, j, k) is root(alpha, i)
    root(beta, j) root(gamma, k) sum_a (-1)^s S(m, s) S(alpha-m, a) S(beta-m, k-a)
    q^-x, s = i - a, x = s(j+1) + (alpha-m-a)(i+k-a) + (k-a)(beta-m-k+a):
    a of the target's k ones lie on its first alpha - m sites, and s of the m
    nested cups put their one on the alpha side."""
    m = (alpha + beta - gamma) // 2
    q, binom, root, powers = tables
    columns = []
    for k in range(gamma + 1):
        column = []
        for i in range(max(0, k + m - beta), min(alpha, k + m) + 1):
            j, total = k + m - i, 0
            for a in range(max(0, i - m, k + m - beta), min(i, alpha - m, k) + 1):
                s = i - a
                x = s * (j + 1) + (alpha - m - a) * (i + k - a) + (k - a) * (beta - m - k + a)
                power = powers.get(-x) or powers.setdefault(-x, q ** -x)
                term = binom[m][s] * binom[alpha - m][a] * binom[beta - m][k - a] * power
                total = total - term if s % 2 else total + term
            column.append(((i, j), root[alpha][i] * root[beta][j] * root[gamma][k] * total))
        columns.append(column)
    return columns


class FusionIsometry(namedtuple("FusionIsometry", "param alpha beta gamma bits coefficients")):
    """Isometric embedding of the label-gamma image into the alpha (x) beta chain.

    ``coefficients`` maps (i, j) to the coefficient, an mpf at ``bits`` (a
    Decimal of as many digits inside the kernels), of basis vectors i of
    p_alpha and j of p_beta in the image of target vector
    k = i + j - (alpha+beta-gamma)/2: weights are kept, so no other entry is
    nonzero.  ``V``, the chain matrix (B_alpha (x) B_beta) C, is built on its
    first read and kept with the isometry.  Isometries compare and hash by
    identity.
    """

    # no __slots__: V is kept in the instance __dict__
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @functools.cached_property
    def V(self):
        import numpy as np

        _check_strands(self.alpha + self.beta)
        ba, bb = (jones_wenzl(self.param, n).basis for n in (self.alpha, self.beta))
        m = (self.alpha + self.beta - self.gamma) // 2
        v = np.zeros((2 ** self.alpha, 2 ** self.beta, self.gamma + 1))
        for (i, j), c in self.coefficients.items():
            v[:, :, i + j - m] += float(c) * np.outer(ba[:, i], bb[:, j])
        v = v.reshape(2 ** (self.alpha + self.beta), -1)
        v.setflags(write=False)
        return v


def _check_channel(gamma, left, right):  # not fuse(left, right): labels may be huge
    if not abs(left - right) <= gamma <= left + right or (left + right - gamma) % 2:
        raise ValueError(f"label {gamma} is not a channel of {left} and {right}")


def _isometries(param, bits, labels):
    """A memo of the isometries at bits that one call reads, keyed on their
    (alpha, beta, gamma), with Decimal coefficients: the work of all of
    labels is checked first, and they are read from one table up to the
    largest label."""
    _check_work(bits, labels)
    tables = _tables(param, bits, labels)

    @functools.cache
    def isometry(alpha, beta, gamma):
        with localcontext(_context(bits)):
            columns = _closed_form(tables, alpha, beta, gamma)
            norms = [sum(c * c for _, c in column) for column in columns]
            scale = sum(norms) / (gamma + 1)
            residual = float(max(abs(n - scale) for n in norms) / scale)
            if residual > _GRAM_TOL:
                raise NumericalDegradationError("fusion overlap is not a scalar multiple "
                                                "of the identity", residual=residual)
            units = [1 / n.sqrt() for n in norms]
            coefficients = {ij: c * unit for column, unit in zip(columns, units)
                            for ij, c in column}
        return FusionIsometry(param, alpha, beta, gamma, bits, MappingProxyType(coefficients))

    return isometry


def fusion_isometry(param, alpha, beta, gamma, bits=None):
    """The isometry with its coefficients at `bits`, by default the width
    for alpha + beta sites."""
    alpha, beta, gamma = operator.index(alpha), operator.index(beta), operator.index(gamma)
    if min(alpha, beta, gamma) < 0:
        raise ValueError("labels must be nonnegative")
    _check_channel(gamma, alpha, beta)
    bits = _bits(param, alpha + beta) if bits is None else bits
    iso = _isometries(param, bits, [(alpha, beta, gamma)])(alpha, beta, gamma)
    import mpmath
    from mpmath.libmp import from_rational

    coefficients = {ij: mpmath.mp.make_mpf(from_rational(*c.as_integer_ratio(), bits, "n"))
                    for ij, c in iso.coefficients.items()}  # each Decimal rounded to bits
    return iso._replace(coefficients=MappingProxyType(coefficients))


def _pentagon_isometries(alpha, r, s, k, l):
    """(alpha, beta, gamma) of the inner and outer fusion of bracketing a, then b."""
    return ((alpha, r, alpha + l), (s, alpha + l, alpha + k + l),
            (s, alpha, alpha + k), (alpha + k, r, alpha + k + l))


def _pentagon_gap(isometry, alpha, r, s, k, l, align_phase):
    """The gap between the two bracketings of a double fusion, from a memo
    of isometries (_isometries) and at their bits.  Both factor through
    B_s (x) B_alpha (x) B_r and keep weights, so a side maps basis vectors
    (i, a, j) to their one product of an inner and an outer coefficient, in
    target vector c = i + a + j - (s+r-k-l)/2; align_phase flips side b
    where that brings it closer."""
    isos = [isometry(*labels) for labels in _pentagon_isometries(alpha, r, s, k, l)]
    inner_a, outer_a, inner_b, outer_b = (iso.coefficients for iso in isos)
    ma, mb = (r - l) // 2, (s - k) // 2
    with localcontext(_context(isos[0].bits)):
        a_side = {(i, a, j): c * outer_a[i, a + j - ma]
                  for (a, j), c in inner_a.items() for i in range(s + 1)
                  if (i, a + j - ma) in outer_a}
        b_side = {(i, a, j): c * outer_b[i + a - mb, j]
                  for (i, a), c in inner_b.items() for j in range(r + 1)
                  if (i + a - mb, j) in outer_b}
        if align_phase and sum(c * b_side.get(key, 0) for key, c in a_side.items()) < 0:
            b_side = {key: -c for key, c in b_side.items()}
        return {key: a_side.get(key, 0) - b_side.get(key, 0) for key in a_side.keys() | b_side}


def pentagon_defect(param, alpha, r, s, k, l, align_phase=True):
    """Operator norm of the gap between the two bracketings of a double fusion.

    The phase freedom of each isometry is fixed, when align_phase is set,
    by the sign closest to the two sides in the Frobenius sense.  The columns
    of the gap lie in distinct weight sectors, so its norm is the largest
    column norm, taken on the orthonormal weight-basis coefficients.
    """
    if min(alpha, r, s, alpha + l, alpha + k, alpha + k + l) < 0:
        raise ValueError("labels and shifted labels must be nonnegative")
    for left, right, gamma in _pentagon_isometries(alpha, r, s, k, l):
        _check_channel(gamma, left, right)
    bits = _bits(param, s + alpha + r)
    isometry = _isometries(param, bits, _pentagon_isometries(alpha, r, s, k, l))
    columns = {}
    with localcontext(_context(bits)):
        for key, d in _pentagon_gap(isometry, alpha, r, s, k, l, align_phase).items():
            columns[sum(key)] = columns.get(sum(key), 0) + d * d  # i + a + j fixes c
        return float(max(columns.values()).sqrt())


def _reference(param, exponent, alpha):
    """q^exponent, refused outside the normal double range: a ratio to an
    infinite, zero or subnormal (precision-losing) reference says nothing."""
    q = float(param.q)
    try:
        value = q ** exponent
    except OverflowError:  # q < 1 to a negative power, or an exponent past the float range
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"q^{exponent} at q = {q!r}, alpha = {alpha} is outside the "
                         "normal double range")
    return value


def pentagon_bound(param, alpha, r, k):
    """Decay reference q^(alpha + (k - r)/2) for the bracketing gap."""
    try:
        exponent = alpha + (k - r) / 2
    except OverflowError:  # a label past the float range: the exponent kept exact
        exponent = alpha + Fraction(k - r, 2)
    return _reference(param, exponent, alpha)


class CommutatorEstimate(namedtuple("CommutatorEstimate", "alpha r s k l weighted_defect "
                                     "reference ratio constant passed")):
    __slots__ = ()


def _weighted_defect(param, alpha, k, l, isometry=None):
    """Worst bracketing-gap pairing against weighted basis vectors, r = s = 1,
    from a memo of isometries, by default its own at the width for alpha + 2 sites.

    The weights are diagonal on the basis, so they cancel against a probe's
    norm; each unit basis vector meets one entry of the gap, so the defect
    is the largest entry."""
    isometry = isometry or _isometries(param, _bits(param, alpha + 2),
                                       _pentagon_isometries(alpha, 1, 1, k, l))
    gap = _pentagon_gap(isometry, alpha, 1, 1, k, l, True)
    return float(max(map(Decimal.copy_abs, gap.values())))


def _estimates(param, cases):
    """Estimates of (alpha, k, l) cases at the width of the largest alpha, so
    they share isometries; the references and the work of all are checked
    before the first."""
    references = {alpha: _reference(param, alpha, alpha) for alpha, _, _ in cases}
    bits = _bits(param, max(references) + 2)
    isometry = _isometries(param, bits, {labels for alpha, k, l in cases for part in _PARTS[k, l]
                                         for labels in _pentagon_isometries(alpha, 1, 1, *part)})
    defect = functools.cache(lambda alpha, k, l: _weighted_defect(param, alpha, k, l, isometry))
    rows = []
    for alpha, k, l in cases:
        reference = references[alpha]
        weighted = sum(defect(alpha, *part) for part in _PARTS[k, l])
        constant = 2 * len(_PARTS[k, l])
        ratio = weighted / reference
        rows.append(CommutatorEstimate(alpha, 1, 1, k, l, weighted, reference, ratio,
                                       constant, ratio <= constant + 1e-9))
    return rows


def commutator_estimate(param, alpha, r, s, k, l):
    """Weighted bracketing-gap estimate for single-letter outer factors."""
    if r != 1 or s != 1:
        raise ValueError("estimate is implemented for r = s = 1")
    if k not in (-1, 1) or l not in (-1, 1):
        raise ValueError("shifts k and l must be +1 or -1")
    if alpha + k < 0 or alpha + l < 0 or alpha + k + l < 0:
        raise ValueError("shifted labels must stay nonnegative")
    return _estimates(param, [(alpha, k, l)])[0]


def commutator_suite(param, alphas):
    """Estimates over all admissible sign pairs for each label in alphas."""
    cases = []
    for alpha in alphas:
        # a label whose reference is refused, or whose tables alone pass the
        # ceiling, ends a long range early
        _reference(param, alpha, alpha)
        _check_work(precision_bits(), [(alpha + 2, 0, alpha + 2)])
        cases += [(alpha, k, l) for k, l in _SIGNS if alpha + min(k, l, k + l) >= 0]
    return _estimates(param, cases) if cases else []


class JWReportRow(namedtuple("JWReportRow", "n rank idempotency annihilation trace_error "
                              "trace_rel_error")):
    """One level of jw_report.  trace_error is exact, the Fraction of
    trace_rel_error times [n+1]_q, as |tr - [n+1]_q| may lie beyond the
    double range; the other checks are floats."""

    __slots__ = ()


def _weight_sectors(n_max):
    """For n = 1..n_max sites, the words of each weight k = 0..n (site 1 the
    most significant bit), each mapped to the exponent k(n-k) - inv(w) of its
    q-Dicke entry.  Each level grows from the last: appending a 0 to w keeps
    inv(w), so the exponent grows by k; appending a 1 adds the n - k zeros
    already in w to inv(w), and the exponent stays."""
    sectors = [{0: 0}]  # the empty word
    for n in range(1, n_max + 1):
        grown = [{} for _ in range(n + 1)]
        for k, sector in enumerate(sectors):
            for w, e in sector.items():
                grown[k][2 * w] = e + k
                grown[k + 1][2 * w + 1] = e
        sectors = grown
        yield sectors


def jw_report(param, n_max):
    """Per-level diagnostics for the top-label projections up to n_max sites,
    on the unit q-Dicke vector v_k of each weight k, in floats.  Every
    generator keeps a word's weight, so each check is a sum within a sector:
    idempotency |v_k.v_k - 1|; annihilation |e_i v_k|, where e_i = |w><w|
    meets each pair x01y, x10y at sites i, i+1 with entries a, b in
    (sqrt(q) a - b/sqrt(q)) w, of norm |q a - b| sqrt(1 + q^-2); and the
    trace against diag(1/q, q) per site, q^-n sum_k q^(2k) |v_k|^2, whose
    relative error to [n+1]_q = q^-n sum_k q^(2k) needs no power of 1/q."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("need at least one site")
    _check_strands(n_max)
    q = float(param.q)
    powers = [q ** e for e in range(max(n_max * n_max // 4, 2 * n_max) + 1)]
    gain = math.hypot(1, 1 / q)
    exact = Fraction(*param.q.as_integer_ratio())
    brackets = _values(exact + 1 / exact)  # [1]_q, [2]_q, ... exactly
    next(brackets)
    rows = []
    for n, sectors in enumerate(_weight_sectors(n_max), 1):
        idem = ann = 0.0
        norms = []
        for sector in sectors:
            scale = math.sqrt(math.fsum(powers[e] ** 2 for e in sector.values()))
            v = {w: powers[e] / scale for w, e in sector.items()}
            norms.append(math.fsum(x * x for x in v.values()))
            idem = max(idem, abs(norms[-1] - 1))
            for j in range(n - 1):  # the generator on sites n - 1 - j and n - j
                pair, low = 3 << j, 1 << j
                ann = max(ann, gain * math.hypot(*[q * x - v[w ^ pair] for w, x in v.items()
                                                   if w & pair == low]))
        target = math.fsum(powers[2 * k] for k in range(n + 1))
        rel = abs(math.fsum(powers[2 * k] * s for k, s in enumerate(norms)) - target) / target
        trace_error = Fraction(rel) * next(brackets)
        rows.append(JWReportRow(n, len(sectors), idem, ann, trace_error, rel))
    return rows
