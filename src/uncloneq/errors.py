"""Exception types raised by validity checks and constructions."""


class UncloneqError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(UncloneqError):
    """Operands have incompatible dimensions."""


class NotHermitian(UncloneqError):
    """Matrix deviates from Hermiticity beyond tolerance."""


class InvalidOperator(UncloneqError):
    """Operator violates its validity contract (PSD, trace, unitarity, ...)."""


class NotOrthogonalPair(UncloneqError):
    """rho @ sigma deviates from zero beyond tolerance."""


class NotInjective(UncloneqError):
    """A keyed message relabeling exposed a collision."""


class InvalidRanks(UncloneqError):
    """Rank vector is not a valid composition of the ciphertext dimension."""


class NotKeyIndependent(UncloneqError):
    """Key-averaged ciphertext varies across keys beyond tolerance."""


class CrossCheckFailed(UncloneqError):
    """Two supposedly equal evaluation routes disagreed beyond tolerance."""
