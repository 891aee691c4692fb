"""Exception types shared across the package."""


class ReachmaxError(Exception):
    """Base class for every error raised by this package."""


class NotDiagonalizable(ReachmaxError):
    """The eigenvector basis is numerically singular or fails to reconstruct A."""


class DimensionTooLarge(ReachmaxError):
    """Corner enumeration of a box would exceed the vertex cap."""


class NotConcave(ReachmaxError):
    """A strictly concave objective was expected."""


class QPNotConverged(ReachmaxError):
    """The concave QP's answer fails its optimality certificate, so it may be far from the maximum."""


class AssumptionViolated(ReachmaxError):
    """A solvability precondition on the problem data does not hold."""


class NonPositiveNu(ReachmaxError):
    """The stopping rank is only defined for a strictly positive value."""


class SingularShift(ReachmaxError):
    """I - A is too ill-conditioned to compute the fixed point of the system."""


class NotConvergent(ReachmaxError):
    """The system matrix has spectral radius >= 1."""


class UnsupportedObjective(ReachmaxError):
    """The objective is neither convex nor strictly concave, or is otherwise out of scope."""


class GenerationExhausted(ReachmaxError):
    """Random instance generation failed too many times in a row."""


class InvalidInstanceFile(ReachmaxError):
    """An instance file is malformed or internally inconsistent."""
