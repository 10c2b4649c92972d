"""Exception types shared across the package."""


class QscatError(Exception):
    """Base class for all package errors."""


class ReducibleModulus(QscatError):
    """Modulus polynomial is not irreducible over GF(2)."""


class DegreeMismatch(QscatError):
    """Modulus degree does not match the requested extension degree."""


class EvenH(QscatError):
    """The tower exponent h must be odd (q = 2^h with h odd)."""


class ZeroInverse(QscatError):
    """Multiplicative inverse of zero requested."""


class AmbientMismatch(QscatError):
    """Objects live in different ambient spaces."""


class SingularMatrix(QscatError):
    """An invertible matrix was required."""


class DegenerateSystem(QscatError):
    """The q-system does not span the ambient space."""


class InvariantViolation(QscatError):
    """A constructive invariant failed; indicates an implementation bug."""


class ClosedFormMismatch(QscatError):
    """A computed subspace does not match its expected closed form."""


class WorkLimitExceeded(QscatError):
    """An exhaustive scan would exceed the configured work budget.

    args are (estimate, budget), so pickle, which rebuilds an exception
    as cls(*args), carries it back from a fork worker."""

    def __init__(self, estimate, budget):
        super().__init__(estimate, budget)
        self.estimate = estimate
        self.budget = budget

    def __str__(self):
        return "work estimate %d exceeds budget %d" % (self.estimate, self.budget)


class ConfigError(QscatError):
    """Invalid run configuration."""
