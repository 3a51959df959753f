"""Exception hierarchy.

Every error magkit raises deliberately derives from MagError, so callers
(and the CLI) can classify failures without catching bare exceptions.
"""


class MagError(Exception):
    """Base class for all magkit errors."""


class ShapeError(MagError, ValueError):
    """Coordinates, order, or aspect sizes incompatible with a shape."""


class SelfLoopError(ShapeError):
    """Both endpoints of a composite edge are the same composite vertex."""


class RangeError(MagError, IndexError):
    """A vertex index or edge rank lies outside its admissible range."""


class ArgumentError(MagError, ValueError):
    """An operation argument violates a precondition."""


class ArithmeticOverflowError(MagError, OverflowError):
    """A derived count does not fit the platform index range."""


class FormatError(MagError, ValueError):
    """Base class for malformed serialized streams."""


class BadMagicError(FormatError):
    """Stream does not start with the expected magic bytes."""


class TruncatedError(FormatError):
    """Stream ends before the declared payload is complete."""


class TrailingDataError(FormatError):
    """Stream continues past the declared payload."""


class PaddingError(FormatError):
    """Final-byte padding bits are not zero (non-canonical stream)."""


class VarintError(FormatError):
    """Malformed, overlong, or non-minimal varint."""


class ParseError(FormatError):
    """Malformed text-format line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEdgeError(ParseError):
    """The same composite edge appears more than once."""


class EdgeError(MagError):
    """A present edge violates a domain rule; `edge` names it as (u, v)."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class NotSnapshotError(EdgeError):
    """A present edge is not spatial (nor an allowed coupling)."""


class NotIntervalRestrictedError(EdgeError):
    """A present edge has no image under an interval-contraction map."""


class CompressorError(MagError):
    """A compressor adapter failed."""
