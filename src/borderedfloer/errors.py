"""Exception types shared across the package."""


class BorderedFloerError(Exception):
    pass


class SchemaViolation(BorderedFloerError):
    """Malformed input data (JSON field missing, wrong shape, ...)."""


# pointed matched circles
class NonSurjectiveMatching(BorderedFloerError):
    pass


class BadOrientationPair(BorderedFloerError):
    pass


class DisconnectedSurgery(BorderedFloerError):
    pass


class NotSubordinate(BorderedFloerError):
    pass


# strands algebra
class StrandsGradingOutOfRange(BorderedFloerError):
    pass


class AlgebraMismatch(BorderedFloerError):
    pass


class InconsistentChordSet(BorderedFloerError):
    pass


# grading group machinery
class FlavorViolation(BorderedFloerError):
    pass


class SizeMismatch(BorderedFloerError):
    pass


class NotInRefinedSubgroup(BorderedFloerError):
    pass


# diagrams
class InvalidDiagram(BorderedFloerError):
    pass


class FlavorOrderViolation(BorderedFloerError):
    pass


# structures
class BoundaryMismatch(BorderedFloerError):
    pass


class NotAComplex(BorderedFloerError):
    pass


class BothUnbounded(BorderedFloerError):
    pass


# exterior algebra / decategorification
class BasisMismatch(BorderedFloerError):
    pass


class RankDeficient(BorderedFloerError):
    pass


class DimensionOdd(BorderedFloerError):
    pass


class DimensionMismatch(BorderedFloerError):
    pass


class DegreeMismatch(BorderedFloerError):
    pass


# knot invariants
class NotUnimodular(BorderedFloerError):
    pass


class SeifertConsistencyFailure(BorderedFloerError):
    pass


class NotDecomposable(BorderedFloerError):
    pass


class ZeroPoint(BorderedFloerError):
    pass
