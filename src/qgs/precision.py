"""Working-precision control for the floating-point side of the package.

Exact identities run in rational arithmetic and never touch this module's
working precision, so they never import mpmath: code that works on data
of either kind enters it through _precision_for, which tests the data
with _is_mp.  Everything floating (large-degree polynomial values,
eigenvalues, series certificates) runs under mpmath, and the
Temperley-Lieb fusion kernels on decimal.Decimal, with a mantissa width
resolved in priority order: an explicit set_precision_bits() call, the
QGS_PRECISION_BITS environment variable, then the 128-bit default.  Both
routes refuse a width below 24 bits (ValueError) or above
MAX_PRECISION_BITS (ResourceLimitError): the cost ceilings elsewhere are
sized near the default, and a wider mantissa multiplies every step.
"""

import os
from contextlib import contextmanager, nullcontext
from fractions import Fraction

from .errors import ResourceLimitError

DEFAULT_BITS = 128
# at 1024 bits each decimal command's largest input takes at most 2.5x its time at
# 128 bits (spectrum at q = 0.(300 nines), 19,999 labels: 1.2 -> 2.9 s; 2-vCPU x86_64)
MAX_PRECISION_BITS = 1024

_override = None


def precision_bits():
    """Return the mantissa width (in bits) currently in force."""
    if _override is not None:
        return _override
    env = os.environ.get("QGS_PRECISION_BITS")
    if env:
        try:
            bits = int(env)
        except ValueError:
            raise ValueError(
                "QGS_PRECISION_BITS must be an integer, got %r" % env
            ) from None
        return _checked(bits, "QGS_PRECISION_BITS")
    return DEFAULT_BITS


def set_precision_bits(bits):
    """Override the mantissa width; pass None to fall back to env/default."""
    global _override
    _override = None if bits is None else _checked(int(bits), "precision")


def _checked(bits, name):
    """bits, if it lies in 24..MAX_PRECISION_BITS."""
    if bits < 24:
        raise ValueError(f"{name} must be at least 24 bits")
    if bits > MAX_PRECISION_BITS:
        raise ResourceLimitError(f"{name} of {bits} bits exceeds {MAX_PRECISION_BITS} bits")
    return bits


@contextmanager
def working_precision(bits=None):
    """Context manager running mpmath at the resolved precision; it imports
    mpmath and yields its context, whose mpf, sqrt, exp, ... are mpmath's."""
    import mpmath

    with mpmath.workprec(bits if bits is not None else precision_bits()):
        yield mpmath.mp


_PLAIN = (Fraction, int, float)  # never an mpmath number, and the most common data


def _is_mp(*values):
    """Whether any of values is an mpmath number, or a value that mpmath
    takes as one (a chebyshev.Dyadic): one whose type has an _mpf_ or an
    _mpc_.  The test reads the type alone, so it imports nothing."""
    for v in values:
        if type(v) not in _PLAIN and (hasattr(type(v), "_mpf_") or hasattr(type(v), "_mpc_")):
            return True
    return False


def _precision_for(*values):
    """working_precision() for arithmetic on values when any is an mpmath
    number; otherwise a null context, which leaves mpmath unimported."""
    return working_precision() if _is_mp(*values) else nullcontext()


def to_mpf(x):
    """Convert int/float/str/Fraction/mpf to mpf at current precision."""
    import mpmath

    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)
