"""Shared exception types."""


class FBranchError(Exception):
    """Base class for errors raised by this package."""


class ParseError(FBranchError, ValueError):
    """Malformed input document."""


class MalformedLineError(ParseError):
    """A line does not match the expected token layout."""


class VertexRangeError(ParseError):
    """A vertex index lies outside [0, n)."""


class LoopEdgeError(ParseError):
    """An edge joins a vertex to itself."""


class ValidationError(FBranchError, ValueError):
    """An argument or a structure lies outside its allowed range."""


class SizeLimitError(FBranchError, RuntimeError):
    """Input exceeds the size limit of an exact algorithm."""


class DecompositionError(FBranchError, ValueError):
    """A branch decomposition violates a structural invariant."""


class InternalInvariantError(FBranchError, AssertionError):
    """An internal guarantee failed; signals an implementation bug."""
