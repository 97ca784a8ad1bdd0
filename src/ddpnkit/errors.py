"""Exception types shared across the package.

Every error raised by library code derives from DdpnError so callers can
catch the whole family at once. The CLI maps these onto exit codes.
"""

from __future__ import annotations


class DdpnError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DdpnError):
    """A parameter or argument lies outside its mathematical domain."""


class ShapeError(DdpnError):
    """Array arguments have inconsistent lengths or shapes."""


class NumericOverflow(DdpnError):
    """A computation produced a non-finite intermediate or result."""


class NumericDivergence(DdpnError):
    """Training produced a non-finite loss and was aborted.

    The partial training report, if one exists, is attached as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class FileFormatError(DomainError):
    """An input file (checkpoint, manifest or dataset) does not follow its layout."""


class UsageError(DdpnError):
    """Invalid command-line usage or malformed configuration."""
