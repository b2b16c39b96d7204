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

A decimal q is held as its exact binary value, a ``Dyadic``: the number
mpmath.mpf reads from the same text at the same width, read here without
importing mpmath, which its arithmetic, repr and str load on first use.
"""

from __future__ import annotations

import math
import operator
import re
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

    QParameter holds every decimal q as one: a float exactly, an mpf
    exactly, a decimal string rounded as mpmath.mpf rounds it.  It converts
    to float as an mpf does, compares and hashes by its exact value, as the
    Fraction of that value does, and gives man_exp (man signed, where an
    mpf's is its magnitude), bc and an ``_mpf_``, so mpmath takes it
    wherever it takes an mpf.  Its repr, str and arithmetic are those of
    that mpf, and import mpmath when used.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man, exp):
        zeros = max((man & -man).bit_length() - 1, 0)
        self.man, self.exp = man >> zeros, exp + zeros if man else 0

    @property
    def man_exp(self):
        return self.man, self.exp

    @property
    def bc(self):
        return abs(self.man).bit_length()

    @property
    def _mpf_(self):
        from mpmath.libmp import from_man_exp

        return from_man_exp(self.man, self.exp)

    def _mpf(self):
        import mpmath

        return mpmath.mp.make_mpf(self._mpf_)

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
        return hash(Fraction(*self.as_integer_ratio()))

    def __repr__(self):
        return repr(self._mpf())

    def __str__(self):
        return str(self._mpf())


def _compare(op):
    def compare(self, other):
        if isinstance(other, float) and not math.isfinite(other):
            return op(0.0, other)  # a finite value against an infinity or a NaN
        if not isinstance(other, (int, float, Fraction, Dyadic)):
            return NotImplemented  # an mpf compares through _mpf_
        (a, b), (c, d) = self.as_integer_ratio(), other.as_integer_ratio()
        return op(a * d, c * b)  # b, d > 0

    return compare


def _through_mpf(name):
    def method(self, *other):
        return getattr(self._mpf(), name)(*other)

    return method


for _name in ("eq", "lt", "le", "gt", "ge"):
    setattr(Dyadic, f"__{_name}__", _compare(getattr(operator, _name)))
for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "pow",
              "rpow", "neg", "pos", "abs"):
    setattr(Dyadic, f"__{_name}__", _through_mpf(f"__{_name}__"))

# what mpmath's str_to_man_exp splits a plain decimal literal into; re
# compiles it on the first decimal string read, not on every import
_LITERAL = r"([+-]?[0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"


def _read(q, bits):
    """q as a Dyadic: a finite float exactly; a plain decimal literal
    d * 10^e, |e| <= 400, rounded half-even at bits as mpmath.mpf(q) is;
    any other string by mpmath.mpf itself, where an infinity or a NaN
    stays an mpf (and a float stays a float), for the range check to refuse."""
    if isinstance(q, float):
        return Dyadic(*_rounded(*q.as_integer_ratio(), bits)) if math.isfinite(q) else q
    literal = re.fullmatch(_LITERAL, q)
    if literal:
        whole, frac, power = literal.groups(default="")
        frac = frac.rstrip("0")
        exp = int(power or 0) - len(frac)
        if (whole + frac).lstrip("+-") and abs(exp) <= 400:  # past 400 mpmath rounds twice
            num = int(whole + frac)
            return Dyadic(*_rounded(num * 10 ** max(exp, 0), 10 ** max(-exp, 0), bits))
    with working_precision(bits) as mp:
        return _exact(mp.mpf(q))


def _clears(q, N):
    """Whether float(QParameter.nq) >= N follows from the exact q + 1/q of
    a Dyadic q: that float is q + 1/q rounded twice at the working width
    and once to a double, less than 2^(3 - min(bits, 53)) off relative."""
    if type(q) is not Dyadic:
        return False
    exact = Fraction(*q.as_integer_ratio())
    return (exact + 1 / exact - N) * 2 ** (min(precision_bits(), 53) - 3) >= N


def _exact(x):
    """A finite mpf as the Dyadic of its value; any other x (a Dyadic, an
    mpc, an infinity, a NaN) as it is."""
    if type(x) is Dyadic or not hasattr(type(x), "_mpf_"):
        return x
    sign, man, exp, _ = x._mpf_
    return Dyadic(-int(man) if sign else int(man), exp) if man or not exp else x


class QParameter(namedtuple("QParameter", "q N")):
    """Deformation data (q, N) for one quantum group model.

    Admissible inputs satisfy 0 < q <= 1, integer N >= 2, and q + 1/q >= N
    (equivalently q no larger than the smallest positive root of
    x^2 - N*x + 1).  Rational q (Fraction or int) keeps all derived values
    exact; float/str/mpf inputs are held as a Dyadic, exact for a float or
    an mpf, a decimal string rounded at the working precision (at least 53
    bits) as mpmath.mpf rounds it, and run on the mpmath side, imported on
    demand by their arithmetic.
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
            bits = max(precision_bits(), 53)
            q = _read(q, bits)
            if q == 1 and Fraction(given) != 1:  # nearer 1 than the width resolves
                raise ValueError(f"q = {given} reads as 1 at {bits} bits: give q as a fraction, "
                                 "or a wider --precision-bits")
        elif _is_mp(q):  # an mpc fails the ordering below
            q = _exact(q)
        elif not isinstance(q, Fraction):
            raise TypeError("q must be Fraction, int, float, str or mpf")
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
        if float(q) < 1 / sys.float_info.max:
            raise ValueError("q = %s is too small: q + 1/q exceeds the double range" % q)
        self = super().__new__(cls, q, N)
        # q + 1/q is within doubles; where its exact value decides, mpmath stays unloaded
        if N > sys.float_info.max or not _clears(q, N) and float(self.nq) < N - 1e-9:
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
