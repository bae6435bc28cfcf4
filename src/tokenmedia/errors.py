"""Shared exception types, and the list check of the document readers."""


class InputError(ValueError):
    """An operation received ill-formed or out-of-contract input."""


class ParseError(InputError):
    """An input document does not match its schema."""


class CapError(RuntimeError):
    """An operation would exceed a fixed resource cap."""


def json_list(value, what: str, inner: bool = False) -> list:
    """``value`` when it is a JSON list, of lists with ``inner``; else a
    ParseError naming ``what``.  A string is no list: its characters would
    read as members."""
    if not isinstance(value, list) or inner and not all(isinstance(x, list) for x in value):
        raise ParseError(f"{what} must be a list" + " of lists" * inner)
    return value
