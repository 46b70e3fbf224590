"""Exception hierarchy for the eigenbounds package.

Validity errors (bad geometric data) and solver failures are kept distinct
so the CLI can map them to different exit codes.
"""


class EigenboundsError(Exception):
    """Base class for all package errors."""


class ValidityError(EigenboundsError):
    """Input data violates a geometric validity constraint."""


class DomainError(ValidityError):
    """Coefficient or weight evaluated outside its maximal domain."""


class DiameterExceedsMaximal(ValidityError):
    """Requested diameter exceeds the maximal diameter allowed by curvature."""


class InradiusExceedsValidity(ValidityError):
    """Requested inradius reaches or exceeds the validity radius of the boundary profile."""


class InvalidDimension(ValidityError):
    """Dimension parameter out of range."""


class SolverError(EigenboundsError):
    """A numerical solve failed to produce a trustworthy result."""


class NoBracketFound(SolverError):
    """Eigenvalue scan exhausted its range without bracketing a sign change."""


class NotDecreasing(SolverError):
    """Bound values failed to decrease strictly along a diameter grid."""


class StabilityFailure(SolverError):
    """Time-step control could not satisfy the stability constraint."""


class DegenerateInitialData(ValidityError):
    """Initial data carries no oscillation to track."""


class ProfileError(ValidityError):
    """Surface profile is not a valid two-pole warping function."""
