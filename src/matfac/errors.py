"""Exception types shared across the package.

Two kinds of failure are kept apart deliberately:

* `MatfacError` (and ValueError etc. from validation) means the caller broke a
  contract — bad input, mismatched shapes, a precondition that does not hold.
* `Refusal` means the input was legitimate but the requested computation is
  outside what the exact methods can soundly decide; the CLI reports these as
  "refused" rather than as failures.
"""

from __future__ import annotations

# the longest text a message holds whole; see `_cut`
_QUOTE_MAX = 60


def _cut(text: str) -> str:
    """text for an error message, cut to `_QUOTE_MAX` characters with the
    cut marked, so a message that holds an input value or name stays short
    however long it is."""
    if len(text) <= _QUOTE_MAX:
        return text
    return f"{text[:_QUOTE_MAX]}... ({len(text)} characters)"


def _quote(value) -> str:
    """repr(value) for an error message, cut by `_cut`."""
    return _cut(repr(value))


class MatfacError(Exception):
    """Base class for contract violations raised by this package."""


class Refusal(MatfacError):
    """The computation was declined on soundness grounds (not a caller error)."""


class UndecidableError(Refusal):
    """A question the implemented exact methods cannot settle either way."""
