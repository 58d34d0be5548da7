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

batch_columns classifies a batch of corpus lines with whole-batch bytes
operations, one column of values per attribute asked for, and computes no
column that those do not need. It is the only code that decides how
corpus bytes decode: bytes that are UTF-8 count one per code point, and any
other bytes are Latin-1, one code point per byte. complete_values derives
symbols and classes from the first five values of one password.
extract_all classifies one text, encoded as ASCII with every other code
point replaced by "?".
"""

from __future__ import annotations

import enum
from itertools import compress
from operator import add, sub
from typing import Iterable, Sequence


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
_LENGTH, _WORDS, _LOWERS, _UPPERS, _DIGITS, _SYMBOLS, _CLASSES = range(len(ATTRIBUTES))


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

# Maps each byte to x (an ASCII letter) or a space (any other byte).
_RUN_TABLE = bytes(ord("x") if _CLASS_TABLE[i] in b"lu" else ord(" ") for i in range(256))
# The same with newlines kept, to find the letter runs of a joined batch.
_BATCH_RUN_TABLE = _RUN_TABLE[:10] + b"\n" + _RUN_TABLE[11:]
# Deleting these leaves a batch's bytes above 0x7F and its newlines.
_ASCII_BUT_NEWLINE = bytes(range(10)) + bytes(range(11, 128))
# Deleting one of these leaves only that class's bytes and the newlines.
_BATCH_DELETE = {
    i: bytes(b for b in range(256) if b != 10 and _CLASS_TABLE[b] != mark)
    for i, mark in ((_LOWERS, ord("l")), (_UPPERS, ord("u")), (_DIGITS, ord("d")))
}


def batch_columns(lines: Sequence[bytes], wanted: Iterable[int]) -> list[list[int]]:
    """The values of newline-free lines, one column per index into ATTRIBUTES.

    The columns come in the order of ``wanted``. This is the one place
    that decides how corpus bytes decode: a line that is UTF-8 has the
    values of its text, and any other line is Latin-1, one code point per
    byte. Each column comes from a few bytes operations on the whole
    batch, not from one call per line, and only the columns that the
    wanted ones derive from are computed, each once: symbols is length
    minus the other three classes, and classes counts the four that are
    present. Every byte above 0x7F is a symbol in _CLASS_TABLE, so a
    Latin-1 line needs no decoding, and a UTF-8 line only needs its length
    recounted in code points.
    """
    wanted = list(wanted)
    if not lines:
        return [[] for _ in wanted]
    need = set(wanted)
    if _CLASSES in need:
        need.add(_SYMBOLS)
    if _SYMBOLS in need:
        need.update((_LENGTH, _LOWERS, _UPPERS, _DIGITS))
    joined = b"\n".join(lines)
    columns: dict[int, list[int]] = {}
    if _LENGTH in need:
        columns[_LENGTH] = lengths = list(map(len, lines))
        if not joined.isascii():
            high = map(len, joined.translate(None, _ASCII_BUT_NEWLINE).split(b"\n"))
            for i in compress(range(len(lines)), high):
                try:
                    lengths[i] = len(lines[i].decode("utf-8"))
                except UnicodeDecodeError:
                    pass  # Latin-1: one code point per byte
    if _WORDS in need:
        # A letter run starts at a letter after a non-letter or a line start.
        runs = b" " + joined.translate(_BATCH_RUN_TABLE).replace(b"\n", b"\n ")
        starts = runs.replace(b" x", b"w").translate(None, b" x")
        columns[_WORDS] = list(map(len, starts.split(b"\n")))
    # Each column becomes a list of ints before the next is split, so only
    # one column's pieces are alive at a time.
    for i in sorted(need & _BATCH_DELETE.keys()):
        columns[i] = list(map(len, joined.translate(None, _BATCH_DELETE[i]).split(b"\n")))
    if _SYMBOLS in need:
        rest = map(sub, map(sub, columns[_LENGTH], columns[_LOWERS]), columns[_UPPERS])
        columns[_SYMBOLS] = list(map(sub, rest, columns[_DIGITS]))
    if _CLASSES in need:
        lowers, uppers, digits, symbols = (
            map(bool, columns[i]) for i in (_LOWERS, _UPPERS, _DIGITS, _SYMBOLS)
        )
        columns[_CLASSES] = list(map(add, map(add, lowers, uppers), map(add, digits, symbols)))
    return [columns[i] for i in wanted]


def complete_values(values: tuple[int, int, int, int, int]) -> tuple[int, ...]:
    """The seven attribute values of the first five of one password."""
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
    runs = raw.translate(_RUN_TABLE)
    words = runs.count(b" x") + runs.startswith(b"x")
    lowers, uppers, digits = marks.count(108), marks.count(117), marks.count(100)  # l, u, d
    return complete_values((len(raw), words, lowers, uppers, digits))
