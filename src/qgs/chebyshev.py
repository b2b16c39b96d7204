"""Dilated Chebyshev polynomials of the second kind and q-number arithmetic.

The family is pinned by U_0 = 1, U_1 = x and the three-term recursion
x*U_a = U_{a-1} + U_{a+1}.  Values at x = q + 1/q feed every quantum
dimension downstream, so two evaluation routes coexist: exact integer
coefficients for structural identities, and a value-domain recurrence (exact
on rational inputs, mpmath otherwise) that is O(degree) and stable for
x >= 2.  The recurrence is written once: ``_values`` yields U_0(x), U_1(x),
... and ``_pairs`` adds the exact derivatives; every value, derivative,
q-number and dimension table reads one of the two.  The eigenvalues
U'/U at q + 1/q have a closed form (spectrum._deltas), which the tests
check against ``_pairs``.  Large-degree evaluation must never expand
coefficients.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice, zip_longest

from .precision import _is_mp, _precision_for, precision_bits, to_mpf, working_precision

__all__ = [
    "ChebyshevPoly",
    "QParameter",
    "build_poly",
    "poly_value",
    "poly_derivative",
    "poly_value_and_derivative",
    "q_number",
]


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


def _values(x):
    """Yield U_0(x), U_1(x), ... in the arithmetic of x, each step at the
    precision in force when the next value is asked for."""
    prev, cur = 0 * x, x ** 0
    while True:
        yield cur
        prev, cur = cur, x * cur - prev


def _pairs(x):
    """Yield (U_a(x), U_a'(x)) for a = 0, 1, ...: differentiating the recursion
    gives u'_{a+1} = u_a + x*u'_a - u'_{a-1}, exact, never a finite difference."""
    du_prev = du = 0 * x
    for u in _values(x):
        yield u, du
        du_prev, du = du, u + x * du - du_prev


def poly_value(alpha, x):
    """U_alpha(x) by the recurrence in the arithmetic of x."""
    if alpha < 0:
        raise ValueError("degree must be a natural number")
    return next(islice(_values(x), alpha, None))


def poly_value_and_derivative(alpha, x):
    """(U_alpha(x), U_alpha'(x)) by the simultaneous recurrence."""
    if alpha < 0:
        raise ValueError("degree must be a natural number")
    return next(islice(_pairs(x), alpha, None))


def poly_derivative(alpha, x):
    """U_alpha'(x), computed from exact data (never by finite differences)."""
    return poly_value_and_derivative(alpha, x)[1]


class QParameter(namedtuple("QParameter", "q N")):
    """Deformation data (q, N) for one quantum group model.

    Admissible inputs satisfy 0 < q <= 1, integer N >= 2, and q + 1/q >= N
    (equivalently q no larger than the smallest positive root of
    x^2 - N*x + 1).  Rational q (Fraction or int) keeps all derived values
    exact; float/str/mpf inputs run on the mpmath side, a decimal string
    read at the working precision (at least 53 bits).
    """

    __slots__ = ()

    def __new__(cls, q, N):
        given = q
        if not isinstance(N, int) or N < 2:
            raise ValueError("N must be an integer >= 2")
        if isinstance(q, bool):
            raise ValueError("q must be a number in (0, 1]")
        if isinstance(q, int):
            q = Fraction(q)
        elif isinstance(q, (float, str)):
            # a float is read exactly, a decimal string at the working width
            # and never less than a float's
            with working_precision(max(precision_bits(), 53)) as mp:
                q, bits = mp.mpf(q), mp.prec
            if q == 1 and Fraction(given) != 1:  # nearer 1 than the width resolves
                raise ValueError(f"q = {given} reads as 1 at {bits} bits: give q as a fraction, "
                                 "or a wider --precision-bits")
        elif not (isinstance(q, Fraction) or _is_mp(q)):  # an mpc fails the ordering below
            raise TypeError("q must be Fraction, int, float, str or mpf")
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
        if float(q) < 1 / sys.float_info.max:
            raise ValueError("q = %s is too small: q + 1/q exceeds the double range" % q)
        self = super().__new__(cls, q, N)
        if N > sys.float_info.max or float(self.nq) < N - 1e-9:  # q + 1/q is within doubles
            raise ValueError(
                "q + 1/q = %s is below N = %d; q may not exceed the "
                "smallest positive root of x^2 - N*x + 1" % (float(self.nq), N)
            )
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @classmethod
    def kac(cls, N):
        """The tracial model at this N: q equal to the small root exactly."""
        if N == 2:
            return cls(Fraction(1), 2)
        with working_precision(max(precision_bits(), 256)) as mp:
            q = (N - mp.sqrt(N * N - 4)) / 2
        return cls(q, N)

    @property
    def nq(self):
        """q + 1/q in the arithmetic of q."""
        if isinstance(self.q, Fraction):
            return self.q + 1 / self.q
        with working_precision():
            return self.q + 1 / self.q

    @property
    def q0(self):
        """Smallest positive root of x^2 - N*x + 1 (exactly 1 at N = 2)."""
        if self.N == 2:
            return 1
        with working_precision() as mp:
            return (self.N - mp.sqrt(self.N * self.N - 4)) / 2

    @property
    def is_kac(self):
        return abs(float(self.q) - float(self.q0)) <= 1e-9

    def q_mpf(self):
        """q as mpf at the current working precision."""
        return to_mpf(self.q)


def q_number(n, param):
    """[n]_q = U_{n-1}(q + 1/q), with [0] = 0 and [1] = 1."""
    if n < 0:
        raise ValueError("q-number index must be a natural number")
    nq = param.nq
    with _precision_for(nq):
        return poly_value(n - 1, nq) if n else 0 * nq
