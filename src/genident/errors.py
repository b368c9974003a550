"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition on inputs was violated."""


class SolverError(RuntimeError):
    """A numerical procedure failed to converge or broke down."""


class ChainDivergenceError(RuntimeError):
    """A reduction step diagnosed a boundary that no limit flag can apply.

    That is a parameter going to infinity, a parameter with no limit, or a
    limit whose flag set fails validation.
    """

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis
