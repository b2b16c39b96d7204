"""Reference routes for the Chebyshev family, the qubit chain and the word
calculus, read only by the tests.

The package evaluates U_a by one value recurrence (qgs.chebyshev._values)
and the eigenvalues U'_a/U_a at q + 1/q by a closed form
(qgs.spectrum._deltas).  The tests check both against the routes here:
the exact integer coefficients of each U_a, and the recurrence for the
derivative, exact, never a finite difference.  The mpf oracles elsewhere
in the tests read the package's numbers through to_mpf, at a width set by
working_precision: mpmath is the tests' oracle, and the package never
imports it.

The Temperley-Lieb suites (qgs.templieb) work on weight sectors and on the
coefficients of each fusion isometry, and never build a 2^n chain array.
The dense chain routes here are their reference, in float64 on numpy:
the generators e_i (tl_apply, tl_generator), the q-Dicke basis of the
image of each top-label projection (dicke_basis), and an isometry's chain
matrix built from its coefficients (chain_matrix).

The word calculus (qgs.freewords) multiplies on junction cores and writes
the commutator as E(b, x) a - E(b, x a).  The reference here is the full
junction rewrite of every product, and the commutator as C(b, x) a -
C(b, x a) with C(b, v) = D(b v) - b D(v) the Leibniz defect, on the same
id tables; _verify is the verifier on that route, with a boundary sum of
its own that checks every junction pair.  The expression algebra the tests
build their words and expressions with lives here too: the generator's
Leibniz sum, word, expression, add and sub, and multiply, apply_generator,
circle and gradient_commutator, each a package kernel run on one fresh
table, its inputs interned and its result decoded.
"""

import math
from collections import namedtuple
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import islice, zip_longest

from qgs import freewords
from qgs.chebyshev import _values
from qgs.freewords import (Expression, ExpansionReport, RemainderLedger, _add, _atoms,
                           _circle_into, _defect_core, _product_into)
from qgs.precision import precision_bits


class ChebyshevPoly(namedtuple("ChebyshevPoly", "degree coeffs")):
    """One member of the family, held as exact integer coefficients.

    coeffs is ascending: coeffs[k] multiplies x**k.  The leading coefficient
    is 1 and coefficients of parity opposite to the degree vanish.
    """

    __slots__ = ()

    def value(self, x):
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative_coeffs(self):
        return tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)


def build_poly(alpha):
    """Exact coefficient vector of the degree-alpha member."""
    if alpha < 0:
        raise ValueError("degree must be a natural number")
    prev, cur = (), (1,)
    for _ in range(alpha):  # x*cur shifts coefficients up one slot; subtract prev
        prev, cur = cur, tuple(c - p for c, p in zip_longest((0, *cur), prev, fillvalue=0))
    return ChebyshevPoly(alpha, cur)


def _pairs(x):
    """Yield (U_a(x), U_a'(x)) for a = 0, 1, ...: differentiating the recursion
    gives u'_{a+1} = u_a + x*u'_a - u'_{a-1}, exact, never a finite difference."""
    du_prev = du = 0 * x
    for u in _values(x):
        yield u, du
        du_prev, du = du, u + x * du - du_prev


def poly_value_and_derivative(alpha, x):
    """(U_alpha(x), U_alpha'(x)) by the simultaneous recurrence."""
    if alpha < 0:
        raise ValueError("degree must be a natural number")
    return next(islice(_pairs(x), alpha, None))


def poly_derivative(alpha, x):
    """U_alpha'(x), computed from exact data (never by finite differences)."""
    return poly_value_and_derivative(alpha, x)[1]


def to_mpf(x):
    """x as an mpf at mpmath's working precision: a Fraction or a Decimal
    (a decimal q among them) rounded once from its exact value, an int,
    float, str or mpf as mpmath.mpf reads it."""
    import mpmath
    from mpmath.libmp import from_rational

    if isinstance(x, (Fraction, Decimal)):
        return mpmath.mp.make_mpf(from_rational(*x.as_integer_ratio(), mpmath.mp.prec, "n"))
    return mpmath.mpf(x)


@contextmanager
def working_precision(bits=None):
    """mpmath at bits, by default the package's working width; yields
    mpmath's context, whose mpf, sqrt, exp, ... are mpmath's."""
    import mpmath

    with mpmath.workprec(bits if bits is not None else precision_bits()):
        yield mpmath.mp


def _pair(q):
    """|w><w| on two sites for the defining vector w = sqrt(q)|01> - (1/sqrt(q))|10>."""
    import numpy as np

    root = math.sqrt(q)
    w = np.array([0.0, root, -1.0 / root, 0.0])
    return np.outer(w, w)


def tl_apply(q, i, block):
    """e_i applied to a chain vector or to the columns of a matrix: |w><w|
    on sites i and i+1, site 1 the most significant bit."""
    import numpy as np

    block = np.asarray(block, dtype=float)
    out = np.einsum("ab,xby->xay", _pair(q), block.reshape(2 ** (i - 1), 4, -1))
    return out.reshape(block.shape)


def tl_generator(q, n, i):
    """The dense 2^n x 2^n matrix of e_i on n sites, i = 1..n-1, as a
    Kronecker product 1 (x) |w><w| (x) 1."""
    import numpy as np

    return np.kron(np.kron(np.eye(2 ** (i - 1)), _pair(q)), np.eye(2 ** (n - i - 1)))


def dicke_basis(q, n):
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


def chain_matrix(iso):
    """The chain matrix (B_alpha (x) B_beta) C of a fusion isometry, with
    2^(alpha+beta) rows and gamma + 1 columns: its coefficients C on the
    q-Dicke bases B (dicke_basis), in float64."""
    import numpy as np

    q = float(iso.param.q)
    ba, bb = dicke_basis(q, iso.alpha), dicke_basis(q, iso.beta)
    m = (iso.alpha + iso.beta - iso.gamma) // 2
    v = np.zeros((2 ** iso.alpha, 2 ** iso.beta, iso.gamma + 1))
    for (i, j), c in iso.coefficients.items():
        v[:, :, i + j - m] += float(c) * np.outer(ba[:, i], bb[:, j])
    return v.reshape(2 ** (iso.alpha + iso.beta), -1)


def word(*letters):
    """A reduced word: adjacent letters must carry distinct algebra labels."""
    for left, right in zip(letters, letters[1:]):
        if left.algebra == right.algebra:
            raise ValueError("adjacent letters share an algebra; word is not reduced")
    return tuple(letters)


def expression(letters=(), coeff=1, phis=()):
    """coeff phi(phis) letters as an Expression; zero when coeff is."""
    terms = {}
    _add(terms, (tuple(letters), tuple(sorted(phis))), coeff)
    return Expression(terms)


def add(e1, e2, scale=1):
    """e1 + scale e2."""
    terms = dict(e1.terms)
    for key, coeff in e2.terms.items():
        _add(terms, key, scale * coeff)
    return Expression(terms)


def sub(e1, e2):
    """e1 - e2."""
    return add(e1, e2, -1)


def _generator_into(t, out, expr, scale=1):
    """Add scale times the Leibniz sum wrapping each letter; scalars map to zero."""
    for (w, phis), coeff in expr.items():
        coeff *= scale
        letters = list(w)
        for j, u in enumerate(w):
            letters[j] = t.wrap(u)
            _add(out, (tuple(letters), phis), coeff)
            letters[j] = u
    return out


def _on_ids(engine, *exprs):
    """engine run on the expressions, interned in a fresh table, and decoded."""
    t = freewords._Table()
    encoded = [{(tuple(map(t.intern, w)), tuple(sorted(map(t.intern, phis)))): coeff
                for (w, phis), coeff in e.terms.items()} for e in exprs]
    return t.decode(engine(t, {}, *encoded))


def multiply(e1, e2):
    """The product e1 e2, on the package's junction cores."""
    return _on_ids(_product_into, e1, e2)


def apply_generator(expr):
    """The Leibniz sum wrapping each letter.  Wrapping ignores circling: the
    generator of a centered letter equals the generator of the raw product,
    and the generator of a scalar is 0."""
    return _on_ids(_generator_into, expr)


def circle(expr):
    """Mean-center an expression: drop scalars, center single letters."""
    return _on_ids(_circle_into, expr)


def gradient_commutator(b, x, a):
    """b D(x a) - D(b x a) - b D(x) a + D(b x) a for reduced words, as the
    package's E(b, x) a - E(b, x a)."""
    t = freewords._Table()
    eb, ex, ea = ({(tuple(map(t.intern, word(*w))), ()): 1} for w in (b, x, a))
    ebx = _product_into(t, {}, eb, ex, core=_defect_core)
    return t.decode(freewords._commutator_into(t, {}, eb, ea, ebx, _product_into(t, {}, ex, ea)))


def _concat_into(t, out, w1, w2, phis, coeff):
    """Add coeff phis w1 w2 to out, rewriting the junction of the two reduced
    words until every term is reduced."""
    if not w1 or not w2 or t.algebra[w1[-1]] != t.algebra[w2[0]]:
        _add(out, (w1 + w2, phis), coeff)
        return
    u, v = w1[-1], w2[0]
    head, tail = w1[:-1], w2[1:]
    fused, phi = t.merge(u, v)
    _add(out, (head + (fused,) + tail, phis), coeff)
    _concat_into(t, out, head, tail, tuple(sorted(phis + (phi,))), coeff)
    pu, pv = t.phi[u], t.phi[v]
    if pu is not None:
        _add(out, (head + (v,) + tail, tuple(sorted(phis + (pu,)))), -coeff)
    if pv is not None:
        _add(out, (head + (u,) + tail, tuple(sorted(phis + (pv,)))), -coeff)
    if pu is not None and pv is not None:
        _concat_into(t, out, head, tail, tuple(sorted(phis + (pu, pv))), -coeff)


def _multiply_into(t, out, e1, e2, scale=1):
    """Add scale times the product e1 e2 to out, reducing every junction."""
    for (w1, p1), c1 in e1.items():
        for (w2, p2), c2 in e2.items():
            phis = tuple(sorted(p1 + p2)) if p1 and p2 else p1 or p2
            _concat_into(t, out, w1, w2, phis, c1 * c2 * scale)
    return out


def _defect_into(t, out, eb, ev, scale=1):
    """Add scale times C(b, v) = D(b v) - b D(v), the failure of the Leibniz
    rule at b."""
    _generator_into(t, out, _multiply_into(t, {}, eb, ev), scale)
    return _multiply_into(t, out, eb, _generator_into(t, {}, ev), -scale)


def _commutator_into(t, out, eb, ex, ea, cbx):
    """Add C(b, x) a - C(b, x a) to out, given cbx = C(b, x)."""
    _multiply_into(t, out, cbx, ea)
    return _defect_into(t, out, eb, _multiply_into(t, {}, ex, ea), -1)


def _boundary_main_sum(t, b, x, a):
    """Sum over junction positions of scalar pairs around a centered local
    term, each position checked pair by pair."""
    n, k, m = len(x), len(b), len(a)
    alg, total = t.algebra, {}
    for i in range(max(1, n - m + 1), min(n, k) + 1):
        mid = (b[k - i], x[i - 1], a[n - i])
        if not alg[mid[0]] == alg[mid[1]] == alg[mid[2]]:
            continue
        pairs = [(b[k - j], x[j - 1]) for j in range(1, i)]
        pairs += [(x[j - 1], a[n - j]) for j in range(i + 1, n + 1)]
        if any(alg[u] != alg[v] for u, v in pairs):
            continue
        phis = tuple(t.merge(u, v)[1] for u, v in pairs)
        eu, ev, ew = ({((u,), ()): 1} for u in mid)
        middle = _commutator_into(t, {}, eu, ev, ew, _defect_into(t, {}, eu, ev))
        term = _multiply_into(t, {}, {(b[: k - i], ()): 1}, _circle_into(t, {}, middle))
        term = _multiply_into(t, {}, term, {(a[n - i + 1 :], ()): 1})
        for (w, p), coeff in term.items():
            _add(total, (w, tuple(sorted(p + phis))), coeff)
    return total


def _verify(t, b_types, x_types, a_types):
    """The report of freewords.verify_boundary_expansion on the reference
    route: every pattern expanded, C(b, x) kept on t for a run of patterns."""
    b, x, a = _atoms(t, "b", b_types), _atoms(t, "x", x_types), _atoms(t, "a", a_types)
    eb, ex = {(b, ()): 1}, {(x, ()): 1}
    if t.defect is None or t.defect[0] != (b, x):
        t.defect = ((b, x), _defect_into(t, {}, eb, ex))
    ledger_terms = _commutator_into(t, {}, eb, ex, {(a, ()): 1}, t.defect[1])
    lhs_zero = not ledger_terms
    for term, coeff in _boundary_main_sum(t, b, x, a).items():
        _add(ledger_terms, term, -coeff)

    n, k, m = len(x), len(b), len(a)
    bound = k + m
    groups, residual = {}, {}
    for (w, phis), coeff in ledger_terms.items():
        groups.setdefault((len(w), tuple(t.algebra[u] for u in w)), {})[w, phis] = coeff
        if len(w) > bound:
            residual[w, phis] = coeff
    must_vanish = n > k + m - 1
    ledger = RemainderLedger(
        groups={sig: t.decode(group) for sig, group in groups.items()},
        max_word_length=max((sig[0] for sig in groups), default=0),
        bound=bound,
        within_bound=not residual,
    )
    passed = not residual and (lhs_zero or not must_vanish)
    return ExpansionReport(b_types, x_types, a_types, lhs_zero, must_vanish, ledger,
                           t.decode(residual), passed)
