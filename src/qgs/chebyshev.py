"""Dilated Chebyshev polynomials of the second kind and q-number arithmetic.

The family is pinned by U_0 = 1, U_1 = x and the three-term recursion
x*U_a = U_{a-1} + U_{a+1}.  Values at x = q + 1/q feed every quantum
dimension downstream, by one route: a value-domain recurrence (exact on
rational inputs, in the arithmetic of x otherwise: decimal.Decimal in the
kernels, mpf in the tests' oracles) that is O(degree) and stable for
x >= 2.  ``_values`` yields U_0(x), U_1(x), ..., and every value, q-number
and dimension table reads it; the eigenvalues U'/U at q + 1/q have a
closed form (spectrum._deltas).  The tests check both against references
of their own (tests/oracles.py): the exact coefficients and the derivative
recurrence.  Large-degree evaluation must never expand coefficients.

A decimal q is held as a decimal.Decimal.  ``_read`` is the one reader of
q, for QParameter and the CLI alike: a fraction or an integer is read
exactly, a float as the Decimal of its exact value, and decimal text or a
Decimal rounded once into the context of the working width (_context).
Every number computed at a decimal q is a Decimal in one context per call,
and a caller's number joins it through _decimal, rounded once from its
exact value.  A decimal q of exactly 1 is held as Fraction(1), on q = 1's
route.  Both read only int, float, Fraction, Decimal and str, and refuse
any other type with a TypeError (_refused): an mpmath mpf, say, is passed
as str(x) or as a Fraction, so that no float() drops its digits.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation,
                     localcontext)
from fractions import Fraction
from itertools import islice

from .precision import precision_bits

__all__ = ["QParameter", "poly_value", "q_number"]


def _values(x):
    """Yield U_0(x), U_1(x), ... in the arithmetic of x, each step at the
    precision in force when the next value is asked for."""
    prev, cur = 0 * x, x ** 0
    while True:
        yield cur
        prev, cur = cur, x * cur - prev


def poly_value(alpha, x):
    """U_alpha(x) by the recurrence in the arithmetic of x."""
    if alpha < 0:
        raise ValueError("degree must be a natural number")
    return next(islice(_values(x), alpha, None))


# a plain decimal literal, split as mpmath's string parser splits one; re
# compiles it on the first decimal string read, not on every import
_LITERAL = r"([+-]?\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?"


def _read(q, bits):
    """q as a number for QParameter.  A finite float is the Decimal of its
    exact value, and a finite Decimal or a plain decimal literal d * 10^e
    (stripped) a Decimal rounded half-even once into the context of bits;
    one that rounds to 1 but is not 1 is a ValueError.  Text with a '/' in it
    is a Fraction, and integer text an int, both exact.  A literal below
    1e-400 or from 1e401 in magnitude is 10^+-1400 of its sign, settled by
    its size without forming 10^|e|.  'inf' and 'nan', as mpmath.mpf spells
    them, and a non-finite float or Decimal are the non-finite floats, which
    the range check refuses.  Other text is a ValueError, and any other type
    a TypeError (_refused)."""
    if isinstance(q, float):
        return Decimal(q) if math.isfinite(q) else q
    if isinstance(q, Decimal):
        value = q
    elif not isinstance(q, str):
        raise _refused(q, "q")
    elif "/" in q:
        try:
            return Fraction(q)
        except ZeroDivisionError:
            raise ValueError(f"q = {q} has a zero denominator") from None
    else:
        try:
            return int(q)
        except ValueError:
            value = _literal(q)
    if not value.is_finite():
        return float(value)
    rounded = _context(bits).plus(value)
    if rounded == 1 != value:  # nearer 1 than bits resolve
        raise ValueError(f"q = {q} reads as 1 at {bits} bits: give q as a fraction, "
                         "or a wider --precision-bits")
    return rounded


def _refused(x, name="x"):
    """The TypeError for a number that is no Fraction, int, float, str or
    Decimal, such as an mpmath mpf or mpc: it would be read through float()
    and lose its digits, or not be read at all."""
    return TypeError(f"{name} must be Fraction, int, float, str or Decimal, not "
                     f"{type(x).__name__}: pass it as str({name}) or a Fraction")


def _literal(q):
    """Decimal text q, stripped, as a Decimal: 'inf' and 'nan' too, and a
    literal outside 1e-400..1e401 as 10^+-1400 of its sign."""
    text = q.strip()
    if text.lower() in ("inf", "+inf", "-inf", "nan"):
        return Decimal(text)
    literal = re.fullmatch(_LITERAL, text)
    if not literal:
        raise ValueError(f"could not convert string to float: {q!r}")
    whole, frac, power = literal.groups(default="")
    frac = frac.rstrip("0")
    try:  # no digit left, as mpmath reads '.0', or more than int() converts
        num, exp = int(whole + frac), int(power or 0) - len(frac)
    except ValueError:
        raise ValueError(f"could not convert string to float: {q!r}") from None
    size = exp + len(str(abs(num)))  # 10^(size - 1) <= |q| < 10^size, or q = 0
    if not num or not -400 < size <= 401:  # 0, or a size the range check refuses
        return Decimal(f"{(num > 0) - (num < 0)}e{1400 if size > 0 else -1400}")
    return Decimal(text)


def _context(bits):
    """The decimal context of a kernel at bits: the digits that hold bits,
    plus 2, rounded half-even, with an exponent range no power of q leaves."""
    return Context(prec=math.ceil(bits * math.log10(2)) + 2, rounding=ROUND_HALF_EVEN,
                   Emax=MAX_EMAX, Emin=MIN_EMIN)


def _decimal(x, ctx):
    """x as a Decimal rounded once into ctx from its exact value: an int, a
    float, a Fraction, a Decimal, or a decimal string as Decimal reads it;
    any other type is a TypeError (_refused).  A non-finite x stays
    non-finite."""
    if isinstance(x, Fraction):
        return ctx.divide(x.numerator, x.denominator)
    if not isinstance(x, (int, float, str, Decimal)):
        raise _refused(x)
    try:
        return ctx.plus(Decimal(x))
    except InvalidOperation:  # a string Decimal does not read, as '1/3'
        raise ValueError(f"could not convert string to a number: {x!r}") from None


def _root(N, bits):
    """The smallest positive root of x^2 - N x + 1, 2/(N + sqrt(N^2 - 4)) with
    no cancellation, as a Decimal in the context of bits."""
    ctx = _context(bits)
    return ctx.divide(2, ctx.add(N, ctx.sqrt(N * N - 4)))


class QParameter(namedtuple("QParameter", "q N")):
    """Deformation data (q, N) for one quantum group model.

    Admissible inputs satisfy 0 < q <= 1, integer N >= 2, and q + 1/q >= N
    (equivalently q no larger than the smallest positive root of
    x^2 - N*x + 1).  Rational q (a Fraction, an int, or text that _read
    reads as one, such as "1/3") keeps all derived values exact; a float,
    decimal text or a Decimal is held as a decimal.Decimal, exact for a
    float, text or a Decimal rounded once at the working precision (at
    least 53 bits), and nq is then a Decimal too.  One that is exactly 1 is
    held as Fraction(1).  A q of any other type is a TypeError: pass it as
    str(q) or a Fraction.
    """

    __slots__ = ()

    def __new__(cls, q, N):
        given = q
        _check_n(N)
        if isinstance(q, bool):
            raise ValueError("q must be a number in (0, 1]")
        if not isinstance(q, (int, Fraction)):
            q = _read(q, max(precision_bits(), 53))  # never narrower than a float
        q = Fraction(q) if isinstance(q, int) else q
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
        q = Fraction(1) if q == 1 else q  # q = 1.0 takes the exact route of q = 1
        if float(q) < 1 / sys.float_info.max:
            raise ValueError("q = %s is too small: q + 1/q exceeds the double range" % (given,))
        return super().__new__(cls, q, N)._below_root()

    def _below_root(self):
        """self, if q + 1/q >= N."""
        if self.N > sys.float_info.max or float(self.nq) < self.N - 1e-9:  # within doubles
            raise ValueError(
                "q + 1/q = %s is below N = %d; q may not exceed the "
                "smallest positive root of x^2 - N*x + 1" % (float(self.nq), self.N)
            )
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace validates a new q too
        return cls(*iterable)

    def _replace(self, **changes):
        """A copy with the given fields changed, validated.  Without a new q
        the q held is kept as it is, not read again at the working width."""
        if "q" in changes:
            return super()._replace(**changes)
        N = changes.pop("N", self.N)
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        _check_n(N)
        return tuple.__new__(type(self), (self.q, N))._below_root()

    def __reduce__(self):  # a copy or a pickle keeps q as held, not read again at the width
        return tuple.__new__, (type(self), tuple(self))

    @classmethod
    def kac(cls, N):
        """The tracial model at this N: q the small root, a Decimal at 256 bits
        or the working precision, whichever is wider, held as it is, where
        QParameter would round a Decimal to the working precision."""
        if N == 2:
            return cls(Fraction(1), 2)
        return super().__new__(cls, _root(N, max(precision_bits(), 256)), N)

    @property
    def nq(self):
        """q + 1/q in the arithmetic of q: exact at rational q, and a Decimal
        rounded once at the working precision otherwise."""
        if isinstance(self.q, Fraction):
            return self.q + 1 / self.q
        return _nq(self.q, _context(precision_bits()))

    @property
    def q0(self):
        """Smallest positive root of x^2 - N*x + 1: exactly 1 at N = 2, and a
        Decimal at the working precision otherwise."""
        return 1 if self.N == 2 else _root(self.N, precision_bits())

    @property
    def is_kac(self):
        return abs(float(self.q) - float(self.q0)) <= 1e-9


def _check_n(N):
    if not isinstance(N, int) or N < 2:
        raise ValueError("N must be an integer >= 2")


def _nq(q, ctx):
    """q + 1/q as a Decimal in ctx, rounded once from q's exact value."""
    num, den = q.as_integer_ratio()
    return ctx.divide(num * num + den * den, num * den)


def q_number(n, param):
    """[n]_q = U_{n-1}(q + 1/q), with [0] = 0 and [1] = 1: exact at rational q,
    and a Decimal at the working precision at decimal q."""
    if n < 0:
        raise ValueError("q-number index must be a natural number")
    with localcontext(_context(precision_bits())):
        x = param.nq
        return poly_value(n - 1, x) if n else 0 * x
