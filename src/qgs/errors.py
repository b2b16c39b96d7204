"""Exception taxonomy shared across the package.

Domain violations (bad labels, out-of-range indices, malformed vectors)
raise ValueError or a subclass; resource ceilings raise ResourceLimitError;
numerical breakdown (a fusion overlap that is not a multiple of the
identity) raises NumericalDegradationError carrying the worst residual seen.
"""


class ResourceLimitError(Exception):
    """A configured size ceiling (strand count, pattern size) was exceeded."""


class DegenerateRegimeError(ValueError):
    """Operation undefined in the degenerate q = 1 regime."""


class InvalidVectorError(ValueError):
    """A spectral vector carries indices outside the 1..n_alpha range."""


class NumericalDegradationError(Exception):
    """A numerical invariant failed beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
