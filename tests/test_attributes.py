import random

import pytest
from hypothesis import given, strategies as st

from pwpolicy import corpus
from pwpolicy.attributes import (
    ATTRIBUTES,
    AttributeId,
    batch_values,
    complete_values,
    extract_all,
)

# (password, length, words, lowers, uppers, digits, symbols, classes)
KNOWN = [
    ("", 0, 0, 0, 0, 0, 0, 0),
    ("a", 1, 1, 1, 0, 0, 0, 1),
    ("A", 1, 1, 0, 1, 0, 0, 1),
    ("7", 1, 0, 0, 0, 1, 0, 1),
    ("!", 1, 0, 0, 0, 0, 1, 1),
    ("password", 8, 1, 8, 0, 0, 0, 1),
    ("Password123!", 12, 1, 7, 1, 3, 1, 4),
    ("pass word", 9, 2, 8, 0, 0, 1, 2),
    ("a1b2c3", 6, 3, 3, 0, 3, 0, 2),
    ("correct horse battery staple", 28, 4, 25, 0, 0, 3, 2),
    ("  spaced  ", 10, 1, 6, 0, 0, 4, 2),
    ("ABC", 3, 1, 0, 3, 0, 0, 1),
    ("aA", 2, 1, 1, 1, 0, 0, 2),
    ("123-456", 7, 0, 0, 0, 6, 1, 2),
    # Non-ASCII letters are symbols and break runs: p(ae)ssw(oe)rd -> 3 runs.
    ("pässwörd", 8, 3, 6, 0, 0, 2, 2),
    ("Über", 4, 1, 3, 0, 0, 1, 2),
    ("\U0001f511key", 4, 1, 3, 0, 0, 1, 2),
]


@pytest.mark.parametrize("password,length,words,lowers,uppers,digits,symbols,classes", KNOWN)
def test_known_extractions(password, length, words, lowers, uppers, digits, symbols, classes):
    assert extract_all(password) == (length, words, lowers, uppers, digits, symbols, classes)


def test_attribute_order_is_stable():
    assert [a.value for a in ATTRIBUTES] == [
        "length",
        "words",
        "lowers",
        "uppers",
        "digits",
        "symbols",
        "classes",
    ]


def test_floors():
    assert AttributeId.LENGTH.floor == 1
    assert AttributeId.CLASSES.floor == 1
    for attr in (
        AttributeId.WORDS,
        AttributeId.LOWERS,
        AttributeId.UPPERS,
        AttributeId.DIGITS,
        AttributeId.SYMBOLS,
    ):
        assert attr.floor == 0


def test_from_token():
    for attr in ATTRIBUTES:
        assert AttributeId.from_token(attr.value) is attr
    with pytest.raises(ValueError, match="unknown attribute 'numerals'"):
        AttributeId.from_token("numerals")


def _char_class(ch):
    """The class of one code point: only ASCII letters and digits are not symbols."""
    if "a" <= ch <= "z":
        return "lower"
    if "A" <= ch <= "Z":
        return "upper"
    if "0" <= ch <= "9":
        return "digit"
    return "symbol"


def _reference_counts(password):
    """Independent slow oracle, one code point at a time."""
    counts = {c: 0 for c in ("lower", "upper", "digit", "symbol")}
    words = 0
    prev_letter = False
    for ch in password:
        cls = _char_class(ch)
        counts[cls] += 1
        letter = cls in ("lower", "upper")
        if letter and not prev_letter:
            words += 1
        prev_letter = letter
    classes = sum(1 for n in counts.values() if n)
    return (
        len(password),
        words,
        counts["lower"],
        counts["upper"],
        counts["digit"],
        counts["symbol"],
        classes,
    )


@given(st.text(max_size=64))
def test_extract_all_matches_reference(password):
    assert extract_all(password) == _reference_counts(password)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=64))
def test_ascii_fast_path_matches_reference(password):
    assert password.isascii()
    assert extract_all(password) == _reference_counts(password)


def test_class_counts_partition_length():
    rng = random.Random(7)
    pool = "abcXYZ019 !@é中\U0001f600"
    for _ in range(500):
        s = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
        length, _, lowers, uppers, digits, symbols, _ = extract_all(s)
        assert lowers + uppers + digits + symbols == length == len(s)


def _assert_batch_matches_reference(lines):
    # Bytes classify as their decoded text. Arbitrary bytes are mostly not
    # UTF-8, so they take the Latin-1 path, which does not decode them.
    got = list(map(complete_values, batch_values(lines)))
    assert got == [_reference_counts(corpus._decode(line)) for line in lines]


@pytest.mark.parametrize(
    "lines",
    [
        [],
        [b""],
        [b"", b"", b""],
        [b"caf\xe9", b"Caf\xe9 au lait"],  # Latin-1
        [b"\x80", b"a\x80b"],  # lone continuation byte
        [b"\xed\xa0\x80", b"x\xed\xa0\x80y"],  # an encoded surrogate is not UTF-8
        [b"\xc0\xaf", b"ab\xc0\xafcd"],  # overlong
        ["\U0001f511key".encode("utf-8"), "a\U00010348B\U0001f600".encode("utf-8")],
        [b"pass\r", b"\r", b"Word\r1"],  # a CR left after clamping
        [b"", "\u00e9t\u00e9".encode("utf-8"), b"", b"x y", b" x", b"x "],
    ],
)
def test_batch_values_cases(lines):
    _assert_batch_matches_reference(lines)


_LINE = st.binary(max_size=48).map(lambda b: b.replace(b"\n", b"")) | st.text(
    st.characters(blacklist_characters="\n"), max_size=24
).map(str.encode)


@given(st.lists(_LINE, max_size=24))
def test_batch_values_match_reference(lines):
    _assert_batch_matches_reference(lines)
