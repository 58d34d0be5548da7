import random

import pytest
from hypothesis import given, strategies as st

from pwpolicy import corpus
from pwpolicy.attributes import (
    ATTRIBUTES,
    AttributeId,
    CharClass,
    byte_values,
    classify_char,
    extract,
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


def test_extract_matches_extract_all():
    for password, *expected in KNOWN:
        for attr, want in zip(ATTRIBUTES, expected):
            assert extract(attr, password) == want


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


def test_classify_char():
    assert classify_char("a") is CharClass.LOWER
    assert classify_char("Z") is CharClass.UPPER
    assert classify_char("0") is CharClass.DIGIT
    assert classify_char(" ") is CharClass.SYMBOL
    assert classify_char("é") is CharClass.SYMBOL
    with pytest.raises(ValueError):
        classify_char("ab")


def _reference_counts(password):
    """Independent slow oracle built on classify_char only."""
    counts = {c: 0 for c in CharClass}
    words = 0
    prev_letter = False
    for ch in password:
        cls = classify_char(ch)
        counts[cls] += 1
        letter = cls in (CharClass.LOWER, CharClass.UPPER)
        if letter and not prev_letter:
            words += 1
        prev_letter = letter
    classes = sum(1 for n in counts.values() if n)
    return (
        len(password),
        words,
        counts[CharClass.LOWER],
        counts[CharClass.UPPER],
        counts[CharClass.DIGIT],
        counts[CharClass.SYMBOL],
        classes,
    )


@given(st.text(max_size=64))
def test_extract_all_matches_reference(password):
    assert extract_all(password) == _reference_counts(password)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=64))
def test_ascii_fast_path_matches_reference(password):
    assert password.isascii()
    assert extract_all(password) == _reference_counts(password)


@given(st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
def test_byte_values_match_decoded_text(raw):
    # Arbitrary bytes are mostly not UTF-8, so they take the Latin-1 path,
    # which classifies the bytes without decoding them.
    assert byte_values(raw) == extract_all(corpus._decode(raw))


def test_class_counts_partition_length():
    rng = random.Random(7)
    pool = "abcXYZ019 !@é中\U0001f600"
    for _ in range(500):
        s = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
        length, _, lowers, uppers, digits, symbols, _ = extract_all(s)
        assert lowers + uppers + digits + symbols == length == len(s)
