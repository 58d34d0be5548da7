"""Numeric password attributes and character classification.

Every password maps to seven small integers: its length in code points,
the number of maximal ASCII-letter runs ("words"), per-class character
counts for the four character classes, and the number of distinct classes
present. Policies and histograms are built entirely on these values.

Classification is byte-oriented: one byte per code point, looked up in a
256-entry class table. Only ASCII a-z/A-Z count as letters; all other
non-alphanumeric code points, including accented letters and whitespace,
are symbols and break letter runs, so text is classified as its ASCII
encoding with every other code point replaced by "?". Corpus scans call the
byte helper directly on lines that are already ASCII, without decoding them.
"""

from __future__ import annotations

import enum


class CharClass(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    DIGIT = "digit"
    SYMBOL = "symbol"


class AttributeId(enum.Enum):
    """Identifier for one numeric password attribute.

    The enum value doubles as the CLI/serialization token.
    """

    LENGTH = "length"
    WORDS = "words"
    LOWERS = "lowers"
    UPPERS = "uppers"
    DIGITS = "digits"
    SYMBOLS = "symbols"
    CLASSES = "classes"

    @property
    def floor(self) -> int:
        """Smallest value a nonempty unconstrained password can take.

        A nonempty password always has length >= 1 and at least one class
        present, so inferring length >= 1 or classes >= 1 says nothing.
        Every other attribute can legitimately be zero.
        """
        return _FLOORS[self]

    @classmethod
    def from_token(cls, token: str) -> "AttributeId":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown attribute {token!r} (expected one of: {valid})") from None


#: Attributes in canonical declaration order; extract_all() follows this order.
ATTRIBUTES: tuple[AttributeId, ...] = tuple(AttributeId)

_FLOORS = {
    AttributeId.LENGTH: 1,
    AttributeId.WORDS: 0,
    AttributeId.LOWERS: 0,
    AttributeId.UPPERS: 0,
    AttributeId.DIGITS: 0,
    AttributeId.SYMBOLS: 0,
    AttributeId.CLASSES: 1,
}

_INDEX = {attr: i for i, attr in enumerate(ATTRIBUTES)}


def _build_class_table() -> bytes:
    table = bytearray(b"s" * 256)
    for b in b"abcdefghijklmnopqrstuvwxyz":
        table[b] = ord("l")
    for b in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        table[b] = ord("u")
    for b in b"0123456789":
        table[b] = ord("d")
    return bytes(table)


# Maps each byte to its class marker (l/u/d/s); callers hand it ASCII bytes,
# one per code point.
_CLASS_TABLE = _build_class_table()

# Collapses a class-marker string to letters (x) vs. non-letters (space).
_RUN_TABLE = bytes(
    ord("x") if chr(i) in "lu" else ord(" ") for i in range(256)
)


def classify_char(ch: str) -> CharClass:
    """Classify a single code point into one of the four classes."""
    if len(ch) != 1:
        raise ValueError("classify_char expects exactly one character")
    o = ord(ch)
    if 97 <= o <= 122:
        return CharClass.LOWER
    if 65 <= o <= 90:
        return CharClass.UPPER
    if 48 <= o <= 57:
        return CharClass.DIGIT
    return CharClass.SYMBOL


def _ascii_values(raw: bytes) -> tuple[int, int, int, int, int, int, int]:
    """extract_all() of ASCII bytes, one byte per code point."""
    length = len(raw)
    marks = raw.translate(_CLASS_TABLE)
    lowers = marks.count(108)  # l
    uppers = marks.count(117)  # u
    digits = marks.count(100)  # d
    symbols = length - lowers - uppers - digits
    # A letter run starts at the first byte or after a non-letter.
    runs = marks.translate(_RUN_TABLE)
    words = runs.count(b" x") + runs.startswith(b"x")
    classes = (lowers > 0) + (uppers > 0) + (digits > 0) + (symbols > 0)
    return (length, words, lowers, uppers, digits, symbols, classes)


def extract_all(password: str) -> tuple[int, int, int, int, int, int, int]:
    """Compute all seven attribute values in ATTRIBUTES order.

    Order: (length, words, lowers, uppers, digits, symbols, classes).
    """
    # "?" is a symbol, as is every non-ASCII code point it stands in for.
    return _ascii_values(password.encode("ascii", "replace"))


def extract(attribute: AttributeId, password: str) -> int:
    """Value of a single attribute for one password."""
    return extract_all(password)[_INDEX[attribute]]
