"""Exception types shared across the package."""


class ZeroConstantTerm(ArithmeticError):
    """Inverse (or negative power) of a series whose constant term is 0."""


class BadConstantTerm(ArithmeticError):
    """exp needs constant term 0; log needs constant term 1."""


class WeightViolation(ValueError):
    """A product factor deviates from 1 below its declared weight."""


class OddTermPresent(ValueError):
    """An operation that requires an even series met an odd-degree term."""


class NonUnitConstant(ArithmeticError):
    """A root factor whose value at x = 0 is not invertible."""


class DimMismatch(ValueError):
    """Incompatible manifold dimensions, or dimension not divisible by 4."""


class DimNotMultipleOf4(DimMismatch):
    """Hypersurface whose real dimension is not a multiple of 4."""


class ResidualNonzero(ValueError):
    """A series that should lie in the modular basis span does not."""


class NotInUpperHalfPlane(ValueError):
    """Numeric evaluation point tau with Im(tau) <= 0."""


class ToleranceNotReached(RuntimeError):
    """Root finding hit its iteration cap before meeting the tolerance."""


class ExponentRangeViolation(ValueError):
    """Analytic exponents outside their admissible range (e.g. p <= m/2)."""


class FloatRangeExceeded(ArithmeticError):
    """A floating-point evaluation left the range of doubles (e.g. sobolev_c
    at a large m or b); the CLI reports it as a domain error."""
