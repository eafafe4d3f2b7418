"""Geometric and input error types shared across modules."""


class AekError(Exception):
    """Base class for package errors."""


class NonConvexPointError(AekError):
    """Hessian of the height function is not positive definite."""


class PatchBoundsError(AekError):
    """A chart point falls outside the declared patch."""


class DegenerateConeError(AekError):
    """The two Transon gradient planes are parallel."""


class DegeneratePairError(AekError):
    """Mid-plane covector vanished (parallel-tangent pair or p1 == p2)."""


class NoSolutionError(AekError):
    """The requested direction does not solve the envelope limit system."""


class RankDeficientError(AekError):
    """The envelope limit system has rank below 3."""


class NormalizationError(AekError, ValueError):
    """A point cannot be normalized: no rational square root, or overflow."""


class SpecFormatError(AekError):
    """Surface spec file is malformed."""
