"""Working-precision control for the floating-point side of the package.

Exact identities run in rational arithmetic and never touch this module's
working precision, so they never import mpmath: code that works on data
of either kind enters it through _precision_for, which tests the data
with _is_mp.  Everything floating (large-degree polynomial values,
eigenvalues, series certificates) runs under mpmath with a mantissa width
resolved in priority order: an explicit set_precision_bits() call, the
QGS_PRECISION_BITS environment variable, then the 128-bit default.
"""

import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

DEFAULT_BITS = 128

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
        if bits < 24:
            raise ValueError("QGS_PRECISION_BITS must be at least 24")
        return bits
    return DEFAULT_BITS


def set_precision_bits(bits):
    """Override the mantissa width; pass None to fall back to env/default."""
    global _override
    if bits is not None:
        bits = int(bits)
        if bits < 24:
            raise ValueError("precision must be at least 24 bits")
    _override = bits


@contextmanager
def working_precision(bits=None):
    """Context manager running mpmath at the resolved precision; it imports
    mpmath and yields its context, whose mpf, sqrt, exp, ... are mpmath's."""
    import mpmath

    with mpmath.workprec(bits if bits is not None else precision_bits()):
        yield mpmath.mp


def _is_mp(*values):
    """Whether any of values is an mpmath number.  Only code that makes one
    imports mpmath, so the test imports nothing: exact data (int, Fraction)
    and floats never are one."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and any(isinstance(v, (mpmath.mpf, mpmath.mpc)) for v in values)


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
