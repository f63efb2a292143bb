"""Exception types shared across the library, and the number rule of
every config field."""

import numpy as np


class ConicPurgeError(Exception):
    """Base class for all library-specific failures."""


class TooFewPoints(ConicPurgeError):
    """An operation received fewer points than it needs."""


class NotAnEllipse(ConicPurgeError):
    """A conic does not describe a real, non-degenerate ellipse."""


class NotAnEllipsoid(ConicPurgeError):
    """A quadric does not describe a real, non-degenerate ellipsoid."""


class DegenerateBandwidth(ConicPurgeError):
    """No kernel bandwidth can be chosen on the data's pairwise distances:
    the ranked distance used for it is zero, typically because duplicated
    points dominate the data set (or points so close that their squared
    differences underflow), or the coordinates span so far that squared
    distances would overflow (``spectral.SQUARE_MARGIN``)."""


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


def typed_number(cast, value, what: str):
    """``cast(value)`` for ``what``, a field of type ``cast`` (int or float).

    Raises ValueError, naming ``what``, for a value the field cannot take:
    a fractional count too, so ``100.7`` is refused rather than cut to 100,
    and a bool, which is not a number of anything.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise ValueError
        typed = cast(value)
        if cast is int and typed != value and typed != float(value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{what} {value!r} is not {kind}") from None
    return typed
