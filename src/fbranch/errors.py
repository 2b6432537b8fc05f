"""Shared exception types, and the one reader of the text inputs.

A layout names a line's tokens: an optional leading tag, ``|`` between its
choices, then integers in angle brackets (``"tree <#nodes>"``).
"""

from collections.abc import Callable


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


def read_document(text: str, header: str) -> tuple[list[int], list[str]]:
    """The integers of a document's first line, laid out as ``header``,
    and its other lines, each stripped; blank lines are dropped."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedLineError("empty document")
    return _line_ints(lines[0], header), lines[1:]


def _line_ints(line: str, layout: str) -> list[int]:
    """The integers of ``line``, which must follow ``layout``."""
    words, tokens = layout.split(), line.split()
    tagged = words[0][0] != "<"
    try:
        if len(tokens) == len(words) and (not tagged or tokens[0] in words[0].split("|")):
            return [int(t) for t in (tokens[1:] if tagged else tokens)]
    except ValueError:
        pass
    raise MalformedLineError(f"expected {layout!r}, got {line!r}")


def int_pairs(rows: list[str], layout: str) -> list[tuple[int, int]]:
    """Each row as two integers, read in one pass."""
    try:
        return [(int(a), int(b)) for a, b in map(str.split, rows)]
    except ValueError:
        for row in rows:  # raises at the first row off the layout
            _line_ints(row, layout)
        raise


def tagged_int_pairs(rows: list[str], layout: str) -> list[list[tuple[int, int]]]:
    """The integer pairs of rows ``tag a b``, one list per tag of the layout."""
    split = list(map(str.split, rows))
    try:
        groups = [[(int(a), int(b)) for t, a, b in split if t == tag]
                  for tag in layout.split()[0].split("|")]
        if sum(map(len, groups)) == len(rows):
            return groups
    except ValueError:
        pass
    for row in rows:  # raises at the first row off the layout
        _line_ints(row, layout)
    raise InternalInvariantError(f"rows failed to read as {layout!r}, yet each line reads alone")


def comma_list(text: str, what: str, build: Callable[[list[str]], object]):
    """``build`` applied to the stripped entries of a comma list, none of
    them empty; a ``ValueError`` from ``build`` becomes a ``ParseError``."""
    entries = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in entries:
        raise ParseError(f"bad {what} {text!r}: empty entry")
    try:
        return build(entries)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}: {exc}") from None
