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

A decimal q is held as its exact binary value, a ``Dyadic``, which does
its arithmetic as the Fraction of that value.  ``_read`` is the one reader
of q text, for QParameter and the CLI alike: a fraction or an integer is
read exactly, a decimal literal rounded once at the working width.  Every
number computed from a Dyadic is a decimal.Decimal in one context per call
(_context), and a caller's number joins it through _decimal, rounded once
from its exact value.  A decimal q of exactly 1 is held as Fraction(1), on
q = 1's route.  Only Dyadic._mpf_, which mpmath alone calls, imports from
mpmath.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                     InvalidOperation, localcontext)
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


def _rounded(num, den, bits):
    """(man, exp) with man * 2^exp the quotient num/den (den > 0) rounded
    half-even to bits significant bits, as mpmath's round-to-nearest does."""
    if not num:
        return 0, 0
    shift = bits + 2 - abs(num).bit_length() + den.bit_length()  # the quotient has bits + 2 or 3
    man, rest = divmod(abs(num) << max(shift, 0), den << max(-shift, 0))
    extra = man.bit_length() - bits
    half, low = 1 << (extra - 1), man & ((1 << extra) - 1)
    man >>= extra
    man += low > half or low == half and bool(rest or man & 1)
    return (-man if num < 0 else man), extra - shift


class Dyadic:
    """A finite binary number man * 2^exp, man odd (or 0, with exp 0).

    QParameter holds every decimal q but 1 as one: a float or an mpf
    exactly, decimal text rounded once at the working width.  It is its
    exact value: it compares, hashes and does arithmetic as the Fraction of
    that value does (d + 1 is a Fraction), converts to float as an mpf does,
    and gives man_exp (man signed, where an mpf's is its magnitude).  Its
    repr is Dyadic(man, exp), and its str the exact, finite decimal
    expansion of its value.  Its ``_mpf_``, which only mpmath calls, lets
    mpmath take it wherever it takes an mpf.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man, exp):
        zeros = max((man & -man).bit_length() - 1, 0)
        self.man, self.exp = man >> zeros, exp + zeros if man else 0

    @property
    def man_exp(self):
        return self.man, self.exp

    @property
    def _mpf_(self):
        from mpmath.libmp import from_man_exp

        return from_man_exp(self.man, self.exp)

    def as_integer_ratio(self):
        if self.exp >= 0:
            return self.man << self.exp, 1
        return self.man, 1 << -self.exp

    def __float__(self):
        man, exp = self.man, self.exp
        if abs(man).bit_length() > 53:  # to a double's 53 bits first, as mpmath does
            man, shift = _rounded(man, 1, 53)
            exp += shift
        try:
            return math.ldexp(man, exp)
        except OverflowError:
            return math.copysign(math.inf, man)

    def __hash__(self):
        return hash(_value(self))

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"

    def __str__(self):
        k = max(-self.exp, 0)  # man 2^-k = man 5^k 10^-k, a Decimal of that many digits
        return str(Decimal(self.man * 5 ** k << max(self.exp, 0)).scaleb(-k, _EXACT))


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _value(x):
    """x, or the Fraction of a Dyadic's value."""
    return Fraction(*x.as_integer_ratio()) if type(x) is Dyadic else x


def _exactly(name):
    def method(self, *other):
        return getattr(_value(self), name)(*map(_value, other))

    return method


for _name in ("eq", "lt", "le", "gt", "ge", "add", "radd", "sub", "rsub", "mul", "rmul",
              "truediv", "rtruediv", "pow", "rpow", "neg", "pos", "abs", "bool"):
    setattr(Dyadic, f"__{_name}__", _exactly(f"__{_name}__"))

# a plain decimal literal, split as mpmath's str_to_man_exp splits one; re
# compiles it on the first decimal string read, not on every import
_LITERAL = r"([+-]?\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?"


def _read(q, bits):
    """q as a number for QParameter: a finite float exactly; text with a '/'
    in it a Fraction, and integer text an int, both exact; a plain decimal
    literal d * 10^e, stripped, rounded half-even once at bits, and one
    below 1e-400 or from 1e401 in magnitude a Dyadic past 2^+-1400 of its
    sign, without forming 10^|e|; 'inf' and 'nan', as mpmath.mpf spells
    them, and a non-finite float the non-finite floats.  The range check
    refuses those last two kinds; other text is a ValueError."""
    if isinstance(q, float):
        return Dyadic(*_rounded(*q.as_integer_ratio(), bits)) if math.isfinite(q) else q
    if "/" in q:
        try:
            return Fraction(q)
        except ZeroDivisionError:
            raise ValueError(f"q = {q} has a zero denominator") from None
    try:
        return int(q)
    except ValueError:
        pass
    text = q.strip()
    if text.lower() in ("inf", "+inf", "-inf", "nan"):
        return float(text)
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
        return Dyadic((num > 0) - (num < 0), 1400 if size > 0 else -1400)
    return Dyadic(*_rounded(num * 10 ** max(exp, 0), 10 ** max(-exp, 0), bits))


def _context(bits):
    """The decimal context of a kernel at bits: the digits that hold bits,
    plus 2, rounded half-even, with an exponent range no power of q leaves."""
    return Context(prec=math.ceil(bits * math.log10(2)) + 2, rounding=ROUND_HALF_EVEN,
                   Emax=MAX_EMAX, Emin=MIN_EMIN)


def _exact(x):
    """A finite mpf as the Dyadic of its value; any other x (a Dyadic, an
    mpc, an infinity, a NaN) as it is."""
    if type(x) is Dyadic or not hasattr(type(x), "_mpf_"):
        return x
    sign, man, exp, _ = x._mpf_
    return Dyadic(-int(man) if sign else int(man), exp) if man or not exp else x


def _decimal(x, ctx):
    """x as a Decimal rounded once into ctx from its exact value: an int, a
    float, a Fraction, a Dyadic, an mpf (by its _exact value), a Decimal, or
    a decimal string as Decimal reads it.  A non-finite x stays non-finite."""
    x = _exact(x)
    if isinstance(x, (Fraction, Dyadic)):
        return ctx.divide(*x.as_integer_ratio())
    try:
        return ctx.plus(Decimal(x if isinstance(x, (int, str, Decimal)) else float(x)))
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
    decimal text, a Decimal (as its string) or an mpf is held as a Dyadic,
    exact for a float or an mpf, text rounded once at the working precision
    (at least 53 bits), and nq is then a Dyadic too.  One that is exactly 1
    is held as Fraction(1).
    """

    __slots__ = ()

    def __new__(cls, q, N):
        given = q
        if not isinstance(N, int) or N < 2:
            raise ValueError("N must be an integer >= 2")
        if isinstance(q, bool):
            raise ValueError("q must be a number in (0, 1]")
        if isinstance(q, Decimal):  # read as its string; an infinity or a NaN as a float
            q = str(q) if q.is_finite() else float(q)
        if isinstance(q, (float, str)):
            # a float is read exactly, decimal text at the working width and
            # never less than a float's
            bits = max(precision_bits(), 53)
            q = _read(q, bits)
            if type(q) is Dyadic and q == 1 and Fraction(given) != 1:  # nearer 1 than bits resolve
                raise ValueError(f"q = {given} reads as 1 at {bits} bits: give q as a fraction, "
                                 "or a wider --precision-bits")
        elif hasattr(type(q), "_mpf_") or hasattr(type(q), "_mpc_"):
            q = _exact(q)  # an mpc fails the ordering below
        elif not isinstance(q, (int, Fraction)):
            raise TypeError("q must be Fraction, int, float, str, Decimal or mpf")
        q = Fraction(q) if isinstance(q, int) else q
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
        q = Fraction(1) if q == 1 else q  # q = 1.0 takes the exact route of q = 1
        if float(q) < 1 / sys.float_info.max:
            raise ValueError("q = %s is too small: q + 1/q exceeds the double range" % (given,))
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
        """The tracial model at this N: q the small root, held at 256 bits or the
        working precision, whichever is wider."""
        if N == 2:
            return cls(Fraction(1), 2)
        bits = max(precision_bits(), 256)
        return cls(_read(str(_root(N, bits)), bits), N)

    @property
    def nq(self):
        """q + 1/q in the arithmetic of q: exact at rational q, and a Dyadic
        q + 1/q rounded once at the working precision otherwise."""
        if isinstance(self.q, Fraction):
            return self.q + 1 / self.q
        num, den = self.q.as_integer_ratio()
        return Dyadic(*_rounded(num * num + den * den, num * den, precision_bits()))

    @property
    def q0(self):
        """Smallest positive root of x^2 - N*x + 1: exactly 1 at N = 2, and a
        Decimal at the working precision otherwise."""
        return 1 if self.N == 2 else _root(self.N, precision_bits())

    @property
    def is_kac(self):
        return abs(float(self.q) - float(self.q0)) <= 1e-9


def _nq(q, ctx):
    """q + 1/q as a Decimal in ctx, rounded once from q's exact value."""
    num, den = q.as_integer_ratio()
    return ctx.divide(num * num + den * den, num * den)


def q_number(n, param):
    """[n]_q = U_{n-1}(q + 1/q), with [0] = 0 and [1] = 1: exact at rational q,
    and a Decimal at the working precision at decimal q."""
    if n < 0:
        raise ValueError("q-number index must be a natural number")
    with localcontext(_context(precision_bits())) as ctx:
        x = param.nq if isinstance(param.q, Fraction) else _nq(param.q, ctx)
        return poly_value(n - 1, x) if n else 0 * x
