"""Working-precision control for the floating-point side of the package.

Exact identities run in rational arithmetic and never read the width.  At
decimal q every number the package computes is a decimal.Decimal rounded
to the digits the width holds (chebyshev._context), a width resolved in
priority order: an explicit set_precision_bits() call, the
QGS_PRECISION_BITS environment variable, then the 128-bit default.  A
width below 24 bits is refused (ValueError), and one above
MAX_PRECISION_BITS (ResourceLimitError): the cost ceilings elsewhere are
sized near the default, and a wider mantissa multiplies every step.
Decimal q text is rounded once into the context of the width, never
below a float's 53 bits (chebyshev._read).
"""

import os

from .errors import ResourceLimitError

DEFAULT_BITS = 128
# at 1024 bits the slowest decimal input, spectrum at q = 0.(300 nines) with 19,999
# labels, takes 1.1 s in a fresh process (0.27 s at q = 0.5 and 128 bits; 2-vCPU x86_64)
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
