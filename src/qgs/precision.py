"""Working-precision control for the floating-point side of the package.

Exact identities run in rational arithmetic and never touch this module.
Everything floating (large-degree polynomial values, eigenvalues, series
certificates) runs under mpmath with a mantissa width resolved in priority
order: an explicit set_precision_bits() call, the QGS_PRECISION_BITS
environment variable, then the 128-bit default.
"""

import os
from contextlib import contextmanager
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
    """Context manager running mpmath at the resolved precision."""
    import mpmath

    with mpmath.workprec(bits if bits is not None else precision_bits()):
        yield mpmath.mp


def to_mpf(x):
    """Convert int/float/str/Fraction/mpf to mpf at current precision."""
    import mpmath

    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)
