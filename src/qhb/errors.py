"""Exception types shared by all qhb modules."""


class QhbError(Exception):
    """Base class for all qhb errors."""


class DimensionMismatch(QhbError):
    """Operands live in different quaternionic dimensions."""


class NonFinite(QhbError):
    """A coordinate, weight or radius is NaN or infinite."""


class NotInBall(QhbError):
    """A point violates the unit-ball precondition of an operation."""


class Singular(QhbError):
    """A projective denominator vanished; cannot happen for interior points."""


class DegenerateGeodesic(QhbError):
    """No unique geodesic: the two endpoints coincide."""


class InvalidProfile(QhbError):
    """Convexity profile violates 0 <= |a| <= r < 1."""


class EmptyData(QhbError):
    """A weighted point set with no points."""


class EmptyRegion(QhbError):
    """Region sampling accepted no points, or a region so small that the
    weights of the points it accepted round to 0 (its proposal box has
    volume 0, or one near the smallest float)."""
