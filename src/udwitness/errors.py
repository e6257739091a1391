"""Exception taxonomy shared by all modules.

Three failure classes cover everything the library can signal:
invalid inputs, numerical non-convergence (which carries the best
estimate obtained so far), and a truncated operator basis that is
too small for the requested state/displacement.
"""


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain. Message names the field."""


class NumericalFailure(RuntimeError):
    """A numerical procedure did not reach its target tolerance.

    ``best`` holds the best estimate available when the failure was raised
    (a ChiValue, a float, or None where the work was refused before it
    began), ``err_estimate`` the corresponding error bound if one exists.
    """

    def __init__(self, message, best=None, err_estimate=None):
        super().__init__(message)
        self.best = best
        self.err_estimate = err_estimate


class TruncationTooSmall(NumericalFailure):
    """A truncated Fock basis cannot represent the requested object."""
