"""Exception types shared across the workbench.

The CLI maps these onto exit codes: InputError (and its subclasses) is a
usage/input problem (exit 2), CapExceeded is a refused computation (exit 3),
InternalCheckError is a bug in an algorithm whose output is supposed to be
certified (exit 4, so it never reads as a refuted property, which is exit 1).
"""

from __future__ import annotations


class GrzlabError(Exception):
    """Base class for all workbench errors."""


class InputError(GrzlabError):
    """Malformed input, bad arguments, or a violated precondition."""


class ParseError(InputError):
    """Syntax error in rule or formula text. Carries the offset."""

    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at offset {pos}: {text[pos:pos + 12]!r})")


class CapExceeded(GrzlabError):
    """A computation was refused because it would exceed a resource cap."""


class InternalCheckError(GrzlabError):
    """A certified construction failed its own certificate check."""
