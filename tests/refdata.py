"""Frozen reference distributions shared across the test suite.

Each mapping is a value -> frequency histogram with hand-computed expected
cumulative counts and display multipliers. They model the shapes that come
out of real breach corpora: one has a hard enforcement jump, one is
constraint-free, two carry a boundary at value 2.
"""

from fractions import Fraction

from pwpolicy.corpus import PasswordRecord

# Length distribution with a 137x cumulative jump at the 5 -> 6 boundary
# (a minimum-length-6 site with ~0.7% non-compliant junk below it).
LENGTH_FREQS = {
    1: 306,
    2: 1540,
    3: 775,
    4: 1221,
    5: 2546,
    6: 870209,
    7: 1208092,
}
LENGTH_CUM = {1: 306, 2: 1846, 3: 2621, 4: 3842, 5: 6388, 6: 876597, 7: 2084689}
LENGTH_MULT_DISPLAY = {1: "6.03", 2: "1.42", 3: "1.47", 4: "1.66", 5: "137.23", 6: "2.38"}

# Uppercase-count distribution with no enforcement anywhere: every
# multiplier sits at or below 1.08.
UPPERS_FREQS = {
    0: 12366006,
    1: 1049727,
    2: 315637,
    3: 267042,
    4: 260061,
    5: 241305,
    6: 220202,
    7: 187806,
}
UPPERS_MULT_DISPLAY = {
    0: "1.08",
    1: "1.02",
    2: "1.02",
    3: "1.02",
    4: "1.02",
    5: "1.02",
    6: "1.01",
}

# Word-count distribution from a two-word policy corpus padded with a
# sliver of foreign records; the boundary multiplier dwarfs the sub-boundary
# noise step (39.39 vs 11.18), so argmax picks the true minimum.
WORDS_FREQS = {0: 2500, 1: 25460, 2: 1073513, 3: 190996, 4: 89916}
WORDS_MULT_DISPLAY = {0: "11.18", 1: "39.39", 2: "1.17", 3: "1.07"}

# Class-count distribution from a two-class policy corpus whose
# separator-split fragments produce a single-class sliver below the boundary.
CLASSES_FREQS = {1: 591820, 2: 49637360, 3: 13401629, 4: 2044894}
CLASSES_MULT_DISPLAY = {1: "84.87", 2: "1.27", 3: "1.03"}


def _password_with_length(v: int) -> str:
    return "a" * v


def _password_with_uppers(v: int) -> str:
    return "A" * v if v else "z"


def _password_with_words(v: int) -> str:
    if v == 0:
        return "7"
    return "a" + "1a" * (v - 1)


def _password_with_classes(v: int) -> str:
    return ("a", "a1", "a1B", "a1B!")[v - 1]


_BUILDERS = {
    "length": _password_with_length,
    "uppers": _password_with_uppers,
    "words": _password_with_words,
    "classes": _password_with_classes,
}


def records_for(attr_token: str, freqs: dict) -> list[PasswordRecord]:
    """Materialize a frequency table as aggregated records."""
    build = _BUILDERS[attr_token]
    return [PasswordRecord(build(v), n) for v, n in sorted(freqs.items())]


def withcount_lines(attr_token: str, freqs: dict) -> list[str]:
    build = _BUILDERS[attr_token]
    return [f"{n} {build(v)}" for v, n in sorted(freqs.items())]


def exact_multipliers(freqs: dict) -> dict[int, Fraction]:
    """Independent oracle: cumulative ratios as exact rationals."""
    values = sorted(freqs)
    cums = {}
    acc = 0
    for v in range(values[0], values[-1] + 1):
        acc += freqs.get(v, 0)
        cums[v] = acc
    return {
        v: Fraction(cums[v + 1], cums[v]) for v in list(cums)[:-1]
    }


# md5 of the bytes `synth generate` writes (one text + "\n" per record),
# 5,000 compliant records, seed 7. Changing these is changing the generator:
# say so, and update them on purpose.
GOLDEN_GENERATE_MD5 = {
    ("basic8", 0.02): "d42784984a9be664741a3020f9f68087",
    ("2word12", 0.02): "2ff0165f705588e1dab6cbf1889e9898",
    ("3class12", 0.02): "aa99e8e7cc304ef620f9261c249e206b",
    ("", 0.0): "cb71e5aaf5bd8594ca4da417ef501d00",
}
