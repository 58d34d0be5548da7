"""Numeric password attributes and character classification.

Every password maps to seven small integers: its length in code points,
the number of maximal ASCII-letter runs ("words"), per-class character
counts for the four character classes, and the number of distinct classes
present. Policies and histograms are built entirely on these values.

Classification is byte-oriented: one byte per code point, looked up in a
256-entry class table. Only ASCII a-z/A-Z count as letters; all other
non-alphanumeric code points, including accented letters and whitespace,
are symbols and break letter runs, so text is classified as its ASCII
encoding with every other code point replaced by "?".

batch_values classifies a batch of corpus lines with whole-batch bytes
operations, and is the only code that decides how corpus bytes decode:
bytes that are UTF-8 count one per code point, and any other bytes are
Latin-1, one code point per byte. complete_values derives symbols and
classes from its five counts. extract_all classifies one text, encoded as
ASCII with every other code point replaced by "?".
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import Iterator, Sequence


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

# Each attribute's position in ATTRIBUTES and in extract_all's tuple.
_ATTR_INDEX = {attr: i for i, attr in enumerate(ATTRIBUTES)}


def _build_class_table() -> bytes:
    table = bytearray(b"s" * 256)
    for b in b"abcdefghijklmnopqrstuvwxyz":
        table[b] = ord("l")
    for b in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        table[b] = ord("u")
    for b in b"0123456789":
        table[b] = ord("d")
    return bytes(table)


# Maps each byte to its class marker (l/u/d/s), one byte per code point;
# every byte above 0x7F is a symbol.
_CLASS_TABLE = _build_class_table()

# Collapses a class-marker string to letters (x) vs. non-letters (space).
_RUN_TABLE = bytes(
    ord("x") if chr(i) in "lu" else ord(" ") for i in range(256)
)

# The two tables above with newlines kept, to classify a batch of lines.
_BATCH_CLASS_TABLE = _CLASS_TABLE[:10] + b"\n" + _CLASS_TABLE[11:]
_BATCH_RUN_TABLE = _RUN_TABLE[:10] + b"\n" + _RUN_TABLE[11:]
# Deleting these leaves a batch's bytes above 0x7F and its newlines.
_ASCII_BUT_NEWLINE = bytes(range(10)) + bytes(range(11, 128))


def batch_values(lines: Sequence[bytes]) -> Iterator[tuple[int, int, int, int, int]]:
    """The first five attribute values of each newline-free line in a batch.

    This is the one place that decides how corpus bytes decode: a line that
    is UTF-8 has the values of its text, and any other line is Latin-1, one
    code point per byte. Each column comes from a few bytes operations on
    the whole batch, not from one call per line; complete_values adds
    symbols and classes. Every byte above 0x7F is a symbol in _CLASS_TABLE,
    so a Latin-1 line needs no decoding, and a UTF-8 line only needs its
    length recounted in code points.
    """
    joined = b"\n".join(lines)
    lengths = list(map(len, lines))
    marks = joined.translate(_BATCH_CLASS_TABLE)
    # Each column becomes a list of ints before the next is split, so only
    # one column's pieces are alive at a time.
    lowers, uppers, digits = (
        list(map(len, marks.translate(None, others).split(b"\n")))
        for others in (b"uds", b"lds", b"lus")
    )
    # A letter run starts at a letter after a non-letter or a line start.
    runs = b" " + marks.translate(_BATCH_RUN_TABLE).replace(b"\n", b"\n ")
    starts = runs.replace(b" x", b"w").translate(None, b" x")
    words = list(map(len, starts.split(b"\n")))
    if not joined.isascii():
        high = map(len, joined.translate(None, _ASCII_BUT_NEWLINE).split(b"\n"))
        for i in compress(range(len(lines)), high):
            try:
                lengths[i] = len(lines[i].decode("utf-8"))
            except UnicodeDecodeError:
                pass  # Latin-1: one code point per byte
    return zip(lengths, words, lowers, uppers, digits)


def complete_values(values: tuple[int, int, int, int, int]) -> tuple[int, ...]:
    """The seven attribute values of one of batch_values' 5-tuples."""
    length, words, lowers, uppers, digits = values
    symbols = length - lowers - uppers - digits
    classes = (lowers > 0) + (uppers > 0) + (digits > 0) + (symbols > 0)
    return (length, words, lowers, uppers, digits, symbols, classes)


def extract_all(password: str) -> tuple[int, int, int, int, int, int, int]:
    """Compute all seven attribute values in ATTRIBUTES order.

    Order: (length, words, lowers, uppers, digits, symbols, classes).
    """
    # "?" is a symbol, as is every non-ASCII code point it stands in for.
    raw = password.encode("ascii", "replace")
    marks = raw.translate(_CLASS_TABLE)
    # A letter run starts at the first byte or after a non-letter.
    runs = marks.translate(_RUN_TABLE)
    words = runs.count(b" x") + runs.startswith(b"x")
    lowers, uppers, digits = marks.count(108), marks.count(117), marks.count(100)  # l, u, d
    return complete_values((len(raw), words, lowers, uppers, digits))
