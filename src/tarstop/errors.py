"""Exception hierarchy shared across the package."""


class TarstopError(Exception):
    """Base class for all package errors."""


class ParseError(TarstopError):
    """A run or qrels file line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        # Both arguments are kept in ``args``, so that a copy pickled across
        # processes keeps its line number.
        super().__init__(message, line_no)
        self.line_no = line_no

    def __str__(self) -> str:
        message = self.args[0]
        return message if self.line_no is None else f"line {self.line_no}: {message}"


class ValidationError(TarstopError):
    """Parsed data violates a structural invariant (duplicates, missing topics)."""


class ComputationError(TarstopError):
    """A numeric computation left its valid domain (overflow, divergence)."""


class InsufficientDataError(ComputationError):
    """Not enough examined documents to bin or fit."""


class NoSignalError(ComputationError):
    """All binned counts are zero; no rate can be estimated."""


class FitError(ComputationError):
    """The least-squares rate fit has no finite minimiser or amplitude."""
