"""Exception types shared across the toolkit."""

from __future__ import annotations


class EbdiError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EbdiError):
    """Invalid input data, configuration, or operation preconditions.

    Maps to CLI exit code 1.
    """


class LoadError(ValidationError):
    """Malformed or inconsistent input file, carrying file/line context."""

    def __init__(self, message: str, path: object = None, line: int | None = None):
        if hasattr(path, "read"):  # an open stream is named by its file name, if it has one
            path = getattr(path, "name", "<stream>")
        self.path = str(path) if path is not None else None
        self.line = line
        if self.path is not None:
            where = self.path if line is None else f"{self.path}:{line}"
            message = f"{where}: {message}"
        super().__init__(message)


class NoCitationsError(EbdiError):
    """A unit has no citations in the requested dimension.

    Reporting code treats this as a missing value, never as an indicator
    value of 0 (a 0 would falsely signal extreme multidisciplinarity).
    """


class ComputationError(EbdiError):
    """Internal arithmetic produced an out-of-contract value.

    Maps to CLI exit code 2. Seeing this exception means a bug, not bad input.
    """
