"""Reference routes for the Chebyshev family and the word calculus, read
only by the tests.

The package evaluates U_a by one value recurrence (qgs.chebyshev._values)
and the eigenvalues U'_a/U_a at q + 1/q by a closed form
(qgs.spectrum._deltas).  The tests check both against the routes here:
the exact integer coefficients of each U_a, and the recurrence for the
derivative, exact, never a finite difference.  The mpf oracles elsewhere
in the tests read the package's numbers through to_mpf, at a width set by
working_precision: mpmath is the tests' oracle, and the package never
imports it.

The word calculus (qgs.freewords) multiplies on junction cores and writes
the commutator as E(b, x) a - E(b, x a).  The reference here is the full
junction rewrite of every product, and the commutator as C(b, x) a -
C(b, x a) with C(b, v) = D(b v) - b D(v) the Leibniz defect, on the same
id tables; _verify is the verifier on that route, with a boundary sum of
its own that checks every junction pair.
"""

from collections import namedtuple
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import islice, zip_longest

from qgs.chebyshev import _values
from qgs.freewords import (ExpansionReport, RemainderLedger, _add, _atoms, _circle_into,
                           _generator_into)
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
