"""Exception types and the frozen record base shared across the package."""


class Record:
    """A frozen value record: `__init__` sets the fields named in `_fields`
    once, through `_set`; `==`, `hash` and `repr` go by those fields, and
    assignment raises.  It keeps `dataclasses` (and `inspect`, `ast`) off
    the import path."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


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
