"""Exception types shared across the package."""


class GGKdVError(Exception):
    """Base class for all package-specific errors."""


class AliasError(GGKdVError):
    """Grid too coarse for the requested modal truncation."""


class EpsilonUnderflow(GGKdVError):
    """Chain clustering tolerance fell below 1e-14 without resolving, or a
    chain linked two coincident frequencies; signals a resonance."""


class ConstraintViolation(GGKdVError):
    """Single-control steering requested between states whose conserved
    mean values differ."""


class IllConditioned(GGKdVError):
    """The HUM operator is numerically too ill-conditioned to solve."""

    def __init__(self, message, condition_number=None, alpha_estimate=None):
        super().__init__(message)
        self.condition_number = condition_number
        self.alpha_estimate = alpha_estimate


class GramianSingular(GGKdVError):
    """The weighted stabilization Gramian is numerically singular."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
