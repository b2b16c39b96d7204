"""Reference routes for the Chebyshev family, read only by the tests.

The package evaluates U_a by one value recurrence (qgs.chebyshev._values)
and the eigenvalues U'_a/U_a at q + 1/q by a closed form
(qgs.spectrum._deltas).  The tests check both against the routes here:
the exact integer coefficients of each U_a, and the recurrence for the
derivative, exact, never a finite difference.  The mpf oracles elsewhere
in the tests read the package's numbers through to_mpf, at a width set by
working_precision: mpmath is the tests' oracle, and the package never
imports it.
"""

from collections import namedtuple
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import islice, zip_longest

from qgs.chebyshev import _values
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
