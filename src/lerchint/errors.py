"""Exception types shared across the package, and the one tolerance check."""


class DomainError(ValueError):
    """Arguments fall outside the admissible domain of an operation."""


class PoleError(DomainError):
    """Argument coincides (to within tolerance) with a pole."""


class DegeneracyError(DomainError):
    """Exponents too close for a distinct-exponent formula to be stable."""


class ConvergenceError(RuntimeError):
    """An iterative scheme exhausted its work budget before reaching tolerance.

    When a partial answer exists it is attached as ``result`` so callers can
    inspect how far the scheme got; the partial value must never be used as if
    it met the requested tolerance.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class EvaluationError(RuntimeError):
    """An integrand or series term produced a non-finite value."""


class CancellationWarning(UserWarning):
    """A difference quotient is close enough to confluence to lose precision."""


def check_tol(tol: float) -> None:
    """Raise DomainError unless tol > 0; a NaN tol fails the comparison and is refused too."""
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
