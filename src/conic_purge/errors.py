"""Exception types shared across the library."""


class ConicPurgeError(Exception):
    """Base class for all library-specific failures."""


class TooFewPoints(ConicPurgeError):
    """An operation received fewer points than it needs."""


class NotAnEllipse(ConicPurgeError):
    """A conic does not describe a real, non-degenerate ellipse."""


class NotAnEllipsoid(ConicPurgeError):
    """A quadric does not describe a real, non-degenerate ellipsoid."""


class DegenerateBandwidth(ConicPurgeError):
    """The ranked pairwise distance used for the kernel bandwidth is zero,
    typically because duplicated points dominate the data set."""


class ConvergenceFailure(ConicPurgeError):
    """A solved generalized eigenpair misses the residual tolerance
    (``spectral.RESIDUAL_RTOL``) of ``generalized_eigs``'s check."""


class ZeroVector(ConicPurgeError):
    """A vector that must be nonzero is identically zero."""


class NoEligibleVectors(ConicPurgeError):
    """No eigenvector passed the low-eigenvalue / low-sign-mix filters."""


class DegenerateConfiguration(ConicPurgeError):
    """A point configuration is rank-deficient for the requested fit."""


class NoValidModel(ConicPurgeError):
    """Every random minimal sample was degenerate; no model could be fit."""


class LengthMismatch(ConicPurgeError):
    """Two per-point sequences that must align have different lengths."""
