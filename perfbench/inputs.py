"""Seeded corpus generators and the benchmark's own reference computations.

Nothing here imports pwpolicy: the expected outputs the benchmark checks
against come from this module's own decoder (UTF-8, else Latin-1, one
trailing CR stripped) and its own attribute counter, never from the
program under test.

Passwords are laid out as fixed segments per line,
``[uppers][lowers][digits][lowers][digits][symbols][extra][CR]``, whose
lengths are drawn per line with NumPy, so millions of lines cost about a
second. ``extra`` is one two-byte UTF-8 character or one Latin-1 byte
(invalid as UTF-8) on a few percent of lines. A plain corpus can also copy
a share of its lines from a pool of popular passwords (``Repeats``), so that
the same password appears many times, as in a real leak.

The shares in ``Mix`` and ``Repeats`` are this benchmark's own choices, not
measured from a leak; only the repeat share is set near a published figure
(see ``Repeats``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

LOWER = b"abcdefghijklmnopqrstuvwxyz"
UPPER = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
DIGIT = b"0123456789"
SYMBOL = b"!@#$%^&*._-+=?"
# Two-byte UTF-8 characters (e, u, n with accents, sharp s, slashed o) and
# the same letters as single Latin-1 bytes, which never form valid UTF-8 at
# the end of a line.
UTF8_EXTRA = ("é", "ü", "ñ", "ß", "ø")
LATIN1_EXTRA = bytes(ord(c) for c in UTF8_EXTRA)

ATTRS = ("length", "words", "lowers", "uppers", "digits", "symbols", "classes")


@dataclass(frozen=True)
class Mix:
    """Make-up of a generated corpus, as shares of its lines.

    Every line is one of: numeric (digits only, sometimes one symbol),
    lettered (letters and at least one digit), a length violator (1-7
    characters) or a digits violator (no digit). ``utf8``, ``latin1`` and
    ``crlf`` are shares of all lines that get a non-ASCII character, a
    Latin-1 byte or a CR before the newline.
    """

    numeric: float = 0.50
    viol_length: float = 0.015
    viol_digits: float = 0.015
    utf8: float = 0.02
    latin1: float = 0.01
    crlf: float = 0.03


@dataclass(frozen=True)
class Repeats:
    """Lines copied from a pool of compliant passwords, by Zipf-weighted rank.

    ``share`` of the lines are drawn from a pool of ``pool`` distinct
    passwords, rank k with weight k ** -exponent; the other lines are drawn
    fresh from the Mix. With the defaults, about half of a 2,000,000-line
    corpus repeats an earlier line and the most popular password is about
    1% of it. The RockYou leak (2009) had 32.6M accounts and 14.3M distinct
    passwords, so 56% of its lines repeated an earlier one, and its most
    popular password ("123456") was 0.9% of it. The pool is compliant: in a
    dump taken under a policy, the popular passwords are the ones the policy
    accepted, and violators are scattered legacy accounts.
    """

    share: float = 0.6
    pool: int = 200_000
    exponent: float = 0.8


# Violators are drawn only among the fresh 40% of lines, so 3.2% of all lines.
# 56% numeric lines keep the words and classes multipliers at about 1.7, well
# below inference's cutoff of 2, whatever the popular passwords happen to be.
PLAIN_MIX = Mix(numeric=0.56, viol_length=0.04, viol_digits=0.04)
PLAIN_REPEATS = Repeats()
# Filter shards: no Latin-1 except in the one shard generated for it.
SHARD_MIX = Mix(latin1=0.0)
LATIN1_SHARD_MIX = Mix(latin1=0.02)


def _geometric(rng, n, first, ratio, steps):
    w = ratio ** np.arange(steps)
    return first + rng.choice(steps, size=n, p=w / w.sum())


def _pick(rng, n, probs):
    return rng.choice(len(probs), size=n, p=np.asarray(probs) / sum(probs))


_BLOCK_LINES = 1 << 17


def generate_lines(rng: np.random.Generator, n: int, mix: Mix, repeats: Repeats | None = None) -> bytes:
    """n newline-terminated password lines as one bytes object.

    Built in blocks so that the per-character index arrays stay small.
    """
    pool = None
    if repeats is not None:
        compliant = replace(mix, viol_length=0.0, viol_digits=0.0)
        pool_buf = np.frombuffer(generate_lines(rng, repeats.pool, compliant), dtype=np.uint8)
        pool_end = np.flatnonzero(pool_buf == 10) + 1
        pool_len = np.diff(pool_end, prepend=0)
        weights = np.arange(1, repeats.pool + 1, dtype=np.float64) ** -repeats.exponent
        pool = (pool_buf, pool_end - pool_len, pool_len, np.cumsum(weights / weights.sum()), repeats.share)
    return b"".join(
        _generate_block(rng, min(_BLOCK_LINES, n - done), mix, pool)
        for done in range(0, n, _BLOCK_LINES)
    )


def _generate_block(rng: np.random.Generator, n: int, mix: Mix, pool=None) -> bytes:
    """n lines; with a pool, a share of them copied from it by weighted rank."""
    if pool is None:
        return _fresh_block(rng, n, mix)
    pool_buf, pool_start, pool_len, pool_cdf, share = pool
    repeated = rng.random(n) < share
    ranks = np.minimum(np.searchsorted(pool_cdf, rng.random(int(repeated.sum()))), len(pool_len) - 1)
    fresh_buf = np.frombuffer(_fresh_block(rng, n - len(ranks), mix), dtype=np.uint8)
    fresh_end = np.flatnonzero(fresh_buf == 10) + 1
    fresh_len = np.diff(fresh_end, prepend=0)
    lens = np.empty(n, dtype=np.int64)
    lens[repeated] = pool_len[ranks]
    lens[~repeated] = fresh_len
    starts = np.cumsum(lens) - lens
    buf = np.empty(int(lens.sum()), dtype=np.uint8)
    _copy_lines(buf, starts[repeated], pool_buf, pool_start[ranks], pool_len[ranks])
    _copy_lines(buf, starts[~repeated], fresh_buf, fresh_end - fresh_len, fresh_len)
    return buf.tobytes()


def _copy_lines(dst, dst_starts, src, src_starts, lens):
    total = int(lens.sum())
    if not total:
        return
    within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    dst[np.repeat(dst_starts, lens) + within] = src[np.repeat(src_starts, lens) + within]


def _fresh_block(rng: np.random.Generator, n: int, mix: Mix) -> bytes:
    if not n:
        return b""
    u = rng.random(n)
    numeric = u < mix.numeric
    viol_len = (u >= mix.numeric) & (u < mix.numeric + mix.viol_length)
    viol_dig = (u >= mix.numeric + mix.viol_length) & (
        u < mix.numeric + mix.viol_length + mix.viol_digits
    )
    lettered = ~numeric & ~viol_len & ~viol_dig

    length = _geometric(rng, n, 8, 0.8, 13)  # 8..20
    length[viol_len] = rng.integers(1, 8, int(viol_len.sum()))
    digits = _pick(rng, n, (0.45, 0.25, 0.15, 0.10, 0.05)) + 1  # 1..5
    symbols = _pick(rng, n, (0.85, 0.12, 0.03))
    uppers = _pick(rng, n, (0.80, 0.17, 0.03))
    two_words = rng.random(n) < 0.15

    # Numeric lines: all digits, one trailing symbol on 8% of them.
    num_sym = numeric & (rng.random(n) < 0.08)
    digits = np.where(numeric, length - num_sym, digits)
    symbols = np.where(numeric, num_sym.astype(np.int64), symbols)
    uppers = np.where(numeric, 0, uppers)
    # Half the length violators are numeric too.
    short_num = viol_len & (rng.random(n) < 0.5)
    digits = np.where(short_num, length, digits)
    digits = np.where(viol_len & ~short_num, np.minimum(digits, np.maximum(length - 1, 1)), digits)
    symbols = np.where(short_num | (viol_len & (length <= digits + 1)), 0, symbols)
    uppers = np.where(short_num, 0, uppers)
    digits = np.where(viol_dig, 0, digits)
    letters = np.maximum(length - digits - symbols, 0)
    letters = np.where(numeric | short_num, 0, np.maximum(letters, lettered | viol_dig))
    uppers = np.minimum(uppers, letters)
    lowers = letters - uppers

    # Two letter runs need a digit between them.
    split = two_words & (lowers >= 4) & (digits >= 1)
    lo2 = np.where(split, lowers // 2, 0)
    lo1 = lowers - lo2
    dg1 = np.where(split, (digits + 1) // 2, digits)
    dg2 = digits - dg1

    v = rng.random(n)
    extra_utf8 = v < mix.utf8
    extra_latin1 = (v >= mix.utf8) & (v < mix.utf8 + mix.latin1)
    crlf = rng.random(n) < mix.crlf

    segs = [
        (uppers, UPPER),
        (lo1, LOWER),
        (dg1, DIGIT),
        (lo2, LOWER),
        (dg2, DIGIT),
        (symbols, SYMBOL),
    ]
    extra_len = extra_utf8 * 2 + extra_latin1 * 1
    sizes = sum(s for s, _ in segs) + extra_len + crlf + 1
    line_end = np.cumsum(sizes)
    line_start = line_end - sizes
    buf = np.empty(int(line_end[-1]) if n else 0, dtype=np.uint8)
    offset = line_start.copy()
    for lens, pool in segs:
        _fill(rng, buf, offset, lens, np.frombuffer(pool, dtype=np.uint8))
        offset += lens
    which = rng.integers(0, len(UTF8_EXTRA), n)
    utf8_bytes = np.array([list(c.encode()) for c in UTF8_EXTRA], dtype=np.uint8)
    at = offset[extra_utf8]
    buf[at] = utf8_bytes[which[extra_utf8], 0]
    buf[at + 1] = utf8_bytes[which[extra_utf8], 1]
    buf[offset[extra_latin1]] = np.frombuffer(LATIN1_EXTRA, dtype=np.uint8)[which[extra_latin1]]
    offset += extra_len
    buf[offset[crlf]] = 13
    buf[line_end - 1] = 10
    return buf.tobytes()


def _fill(rng, buf, starts, lens, pool):
    total = int(lens.sum())
    if not total:
        return
    base = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    buf[base + np.arange(total)] = pool[rng.integers(0, len(pool), total)]


# --- reference decoder and attribute counter --------------------------------

_LETTER_RUN = re.compile(r"[A-Za-z]+")
_LOWER_RE = re.compile(r"[a-z]")
_UPPER_RE = re.compile(r"[A-Z]")
_DIGIT_RE = re.compile(r"[0-9]")


def decode(raw: bytes) -> str:
    """One line without its newline: drop one trailing CR, UTF-8 else Latin-1."""
    if raw.endswith(b"\r"):
        raw = raw[:-1]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def attributes(text: str) -> tuple[int, ...]:
    """(length, words, lowers, uppers, digits, symbols, classes) of one password.

    Only ASCII letters and digits are letters and digits; every other code
    point is a symbol and ends a letter run.
    """
    lowers = len(_LOWER_RE.findall(text))
    uppers = len(_UPPER_RE.findall(text))
    digits = len(_DIGIT_RE.findall(text))
    symbols = len(text) - lowers - uppers - digits
    classes = sum(1 for c in (lowers, uppers, digits, symbols) if c)
    words = len(_LETTER_RUN.findall(text))
    return (len(text), words, lowers, uppers, digits, symbols, classes)


def _class_table() -> np.ndarray:
    table = np.full(256, 3, dtype=np.int8)  # symbol
    table[np.frombuffer(LOWER, dtype=np.uint8)] = 0
    table[np.frombuffer(UPPER, dtype=np.uint8)] = 1
    table[np.frombuffer(DIGIT, dtype=np.uint8)] = 2
    table[10] = 4  # newline
    return table


_CLASSES = _class_table()


def line_attributes(data: bytes) -> np.ndarray:
    """Attributes of every line of newline-terminated data, shape (lines, 7).

    ASCII lines are counted with array operations, a few MiB of lines at a
    time; a line holding any byte above 0x7F goes through decode() and
    attributes() one at a time.
    """
    parts = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", min(start + _CHUNK_BYTES, len(data) - 1)) + 1
        parts.append(_chunk_attributes(data[start:end]))
        start = end
    return np.concatenate(parts) if parts else np.zeros((0, 7), dtype=np.int32)


_CHUNK_BYTES = 1 << 22


def _chunk_attributes(data: bytes) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    nl = buf == 10
    n = int(nl.sum())
    ends = np.flatnonzero(nl)
    line_id = np.cumsum(nl) - nl  # line index of every byte, newline included
    cls = _CLASSES[buf]
    # A CR directly before the newline is not part of the password.
    trailing_cr = np.zeros(len(buf), dtype=bool)
    trailing_cr[:-1] = (buf[:-1] == 13) & nl[1:]
    counted = ~nl & ~trailing_cr
    out = np.zeros((n, 7), dtype=np.int32)
    for c, col in ((0, 2), (1, 3), (2, 4), (3, 5)):
        out[:, col] = np.bincount(line_id[(cls == c) & counted], minlength=n)
    out[:, 0] = out[:, 2:6].sum(axis=1)
    letter = cls <= 1
    run_start = letter.copy()
    run_start[1:] &= ~letter[:-1]
    out[:, 1] = np.bincount(line_id[run_start], minlength=n)
    out[:, 6] = (out[:, 2:6] > 0).sum(axis=1)
    wide = np.unique(line_id[buf >= 0x80])
    starts = np.concatenate(([0], ends[:-1] + 1))
    for i in wide:
        out[i] = attributes(decode(data[starts[i]:ends[i]]))
    return out


def histograms(values: np.ndarray, weights: np.ndarray | None = None) -> dict[str, dict[int, int]]:
    """Per-attribute value -> total weight maps over rows of line_attributes()."""
    hists = {}
    for j, name in enumerate(ATTRS):
        counts = np.bincount(values[:, j], weights=weights)
        hists[name] = {v: int(c) for v, c in enumerate(counts) if c}
    return hists


def distinct_shapes(values: np.ndarray) -> int:
    return len(np.unique(values, axis=0))


# --- withcount shards ----------------------------------------------------------

def zipf_counts(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    """Multiplicities of n distinct passwords, Zipf-distributed, largest first."""
    return np.sort(rng.zipf(exponent, n))[::-1].astype(np.int64)


def withcount_shard(rng: np.random.Generator, n: int, mix: Mix, exponent: float) -> tuple[bytes, np.ndarray, list[bytes]]:
    """A ``sort | uniq -c`` style shard: (file bytes, multiplicities, raw passwords).

    Raw passwords keep their trailing CR, as the file does.
    """
    passwords = generate_lines(rng, n, mix).split(b"\n")[:-1]
    counts = zipf_counts(rng, n, exponent)
    data = b"".join(b"%7d %s\n" % (c, p) for c, p in zip(counts.tolist(), passwords))
    return data, counts, passwords


# --- policies -----------------------------------------------------------------

_NAMED = (
    (re.compile(r"basic(\d+)"), lambda m: {"length": int(m[1])}),
    (re.compile(r"(\d+)word(\d+)"), lambda m: {"length": int(m[2]), "words": int(m[1])}),
    (re.compile(r"(\d+)class(\d+)"), lambda m: {"length": int(m[2]), "classes": int(m[1])}),
)


def parse_policy(spec: str) -> dict[str, int]:
    """Attribute minima of a policy name or a comma-separated term list."""
    spec = spec.strip()
    for pattern, minima in _NAMED:
        m = pattern.fullmatch(spec)
        if m:
            return minima(m)
    out = {}
    for term in spec.split(","):
        if not term.strip():
            continue
        name, _, value = term.partition(">=")
        name = name.strip()
        if name not in ATTRS or name in out or not value.strip().isdigit():
            raise ValueError(f"bad policy term {term!r}")
        out[name] = int(value)
    return out


def complies(values: np.ndarray, minima: dict[str, int]) -> np.ndarray:
    """Boolean mask of rows of line_attributes() meeting every minimum."""
    ok = np.ones(len(values), dtype=bool)
    for name, minimum in minima.items():
        ok &= values[:, ATTRS.index(name)] >= minimum
    return ok


def noise_count(compliant: int, noise: float) -> int:
    """Violators added to a synthetic corpus of `compliant` records."""
    return int(compliant * noise / (1.0 - noise))
