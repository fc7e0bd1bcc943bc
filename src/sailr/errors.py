"""Exception types shared across the package."""


class SailrError(Exception):
    """Base class for all package errors."""


class ValidationError(SailrError):
    """One or more invariants violated; carries the full list of messages."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    @classmethod
    def check(cls, errors):
        """Raise one carrying the list errors, if it is not empty."""
        if errors:
            raise cls(errors)


class TimeDomainError(SailrError, ValueError):
    """A time argument fell outside the covered interval."""


class GridMismatchError(SailrError, ValueError):
    """Two grid-aligned series do not share the same grid."""


class BlowupError(SailrError):
    """Integration produced a non-finite value.

    ``step`` is the 1-based index of the step that first went non-finite.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"integration blow-up at step {step}")


class FeasibilityError(SailrError, ValueError):
    """A candidate or state violated a hard feasibility constraint."""

