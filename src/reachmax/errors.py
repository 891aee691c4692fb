"""Exception types shared across the package."""


class ReachmaxError(Exception):
    """Base class for every error raised by this package."""


class NotDiagonalizable(ReachmaxError):
    """The eigenvector basis is numerically singular or fails to reconstruct A."""


class DimensionTooLarge(ReachmaxError):
    """Corner enumeration of a box would exceed the vertex cap; only a convex objective's box is enumerated."""


class NotConcave(ReachmaxError):
    """A strictly concave objective was expected."""


class QPNotConverged(ReachmaxError):
    """The concave QP's answer fails its optimality certificate, so it may be far from the maximum."""


class AssumptionViolated(ReachmaxError):
    """A solvability precondition on the problem data does not hold.

    The decay envelope raises it when the computed envelope is not positive,
    as when the squared mode maxima of a working set of coordinates below
    about 1e-162 underflow to 0. `solve` refuses the zero objective, whose
    envelope is 0, up front, and builds the envelope only at k_pos, the first
    rank with a positive value, so it raises there: a solve whose values
    never exceed 0 ends Failed instead of raising.
    """


class NonPositiveNu(ReachmaxError):
    """The stopping rank is only defined for a strictly positive value."""


class SingularShift(ReachmaxError):
    """I - A is too ill-conditioned to compute the fixed point of the system."""


class NotConvergent(ReachmaxError):
    """The system matrix has spectral radius >= 1."""


class UnsupportedObjective(ReachmaxError):
    """The objective is neither convex nor strictly concave, is zero, or is otherwise out of scope."""


class GenerationExhausted(ReachmaxError):
    """Random instance generation failed too many times in a row."""


class InvalidInstanceFile(ReachmaxError):
    """An instance file is malformed or internally inconsistent."""
