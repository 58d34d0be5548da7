"""Streaming ingestion of leaked-password corpora.

Corpora arrive as newline-delimited files in one of two layouts: ``plain``
(one password per line) or ``withcount`` (a multiplicity in ASCII digits,
one space, then the password, the layout produced by the usual ``sort |
uniq -c`` post-processing of public dumps). Both are read in a single
bounded-memory pass; files of tens of millions of lines must stream
through without ever being held in memory.

Every consumer reads one batched, columnar record stream, _record_batches.
Its chunk splitter, _line_batches, reads the file in 1 MiB chunks and splits
each into a list of the lines it completes. _record_batches cuts each list
into batches of _BATCH_LINES lines and applies the line format to each: the
skip-empty rule, and for withcount the count grammar (_withcount_records,
_split_withcount). It is the one place that tells the formats apart, and it
yields each batch's lines, counts and password bytes as three columns. Its
consumers only read columns: read_records decodes passwords into
PasswordRecords (the library API), histogram.scan_stream counts attribute
shapes (hist, infer, plot), policy.filter_stream writes back each line's
bytes (filter, synth pad) and synth.corrupt_stream writes back each line or
its pieces (synth corrupt). scan_stream and filter_stream classify a batch
at a time with attributes.batch_values, which reads bytes that are UTF-8 as
UTF-8 and any others as Latin-1, as _decode does.

Dumps are dirty by nature. A single trailing CR is dropped to tolerate CRLF
files, and pathological lines are clamped at 64 KiB (counted in
ReadStats.truncated) so a corrupt line cannot balloon memory. Passwords are
decoded as UTF-8 with a byte-per-byte Latin-1 fallback (_decode) so that no
input can abort a scan.

Large files can be split into contiguous byte partitions aligned on line
terminators (partition_offsets) and scanned by independent workers (seek to
the start, read up to the limit); the per-partition results are combined
downstream. Concatenating the lines of adjacent partitions is exactly one
sequential scan, so records, histograms and ReadStats do not depend on the
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

#: Hard per-line cap; anything longer is cut here and the rest of the line
#: is discarded.
MAX_LINE_BYTES = 64 * 1024

#: Longest withcount count accepted: no corpus holds 10**18 copies of a line.
MAX_COUNT_DIGITS = 18

_CHUNK_BYTES = 1 << 20

# Lines per batch of records. A whole 1 MiB chunk (~100k lines) at once
# holds all its column lists together, which cost 8 MiB of peak RSS;
# batches of this size cost no speed.
_BATCH_LINES = 2048


class PasswordRecord(NamedTuple):
    """One corpus entry: the password text and how many times it occurred."""

    text: str
    multiplicity: int = 1


@dataclass(frozen=True)
class CorpusFormat:
    """How a corpus file is laid out.

    kind is "plain" or "withcount". When skip_empty is set, empty lines are
    counted and dropped instead of producing zero-length records (plain) or
    format errors (withcount).
    """

    kind: str = "plain"
    skip_empty: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("plain", "withcount"):
            raise ValueError(f"unknown corpus format kind: {self.kind!r}")


class CorpusFormatError(ValueError):
    """A line that does not satisfy the declared corpus format."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CorpusReadError(OSError):
    """Underlying stream failed; byte_offset locates how far the scan got."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte offset {byte_offset})")
        self.byte_offset = byte_offset


@dataclass
class ReadStats:
    """Counters accumulated over one scan."""

    lines: int = 0
    records: int = 0
    skipped_empty: int = 0
    truncated: int = 0

    def add(self, other: "ReadStats") -> None:
        self.lines += other.lines
        self.records += other.records
        self.skipped_empty += other.skipped_empty
        self.truncated += other.truncated


def _decode(raw: bytes) -> str:
    # Latin-1 maps every byte, so no line can fail to decode.
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def _line_batches(
    stream: BinaryIO, stats: ReadStats, limit: int | None = None
) -> Iterator[list[bytes]]:
    """Yield the lines completed by each chunk read, one list per chunk.

    Lines come without their terminator, clamped to MAX_LINE_BYTES and then
    stripped of one trailing CR; ``stats.lines`` and ``stats.truncated``
    count every line in a list before it is yielded. Reads at most
    ``limit`` bytes when given (used for partition scans; the caller
    guarantees the limit falls on a line terminator). A final line without
    a trailing newline is still yielded.
    """
    carry = b""
    draining = False  # inside an overlong line, discarding until newline
    consumed = 0
    while True:
        want = _CHUNK_BYTES if limit is None else min(_CHUNK_BYTES, limit - consumed)
        if want <= 0:
            break
        try:
            chunk = stream.read(want)
        except OSError as exc:
            raise CorpusReadError(f"corpus read failed: {exc}", consumed) from exc
        if not chunk:
            break
        consumed += len(chunk)
        if draining:
            nl = chunk.find(b"\n")
            if nl < 0:
                continue
            chunk = chunk[nl + 1:]
            draining = False
        chunk = carry + chunk
        # Dropping the CR of every CRLF before splitting is exact unless a
        # line reaches the clamp, which has to cut before the CR is dropped.
        lines = chunk.replace(b"\r\n", b"\n").split(b"\n")
        carry = lines.pop()
        if lines and max(map(len, lines)) >= MAX_LINE_BYTES:
            lines = chunk.split(b"\n")[:-1]
            stats.truncated += sum(len(line) > MAX_LINE_BYTES for line in lines)
            lines = [_strip_cr(line[:MAX_LINE_BYTES]) for line in lines]
        if len(carry) > MAX_LINE_BYTES:
            stats.truncated += 1
            lines.append(_strip_cr(carry[:MAX_LINE_BYTES]))
            carry = b""
            draining = True
        if lines:
            stats.lines += len(lines)
            yield lines
    if carry:
        stats.lines += 1
        yield [_strip_cr(carry)]


def _strip_cr(line: bytes) -> bytes:
    return line[:-1] if line.endswith(b"\r") else line


def _split_withcount(raw: bytes, line_number: int | None = None) -> tuple[int, bytes]:
    """Split one withcount line's bytes into (multiplicity, password bytes).

    Grammar: optional leading spaces, at most MAX_COUNT_DIGITS ASCII decimal
    digits, exactly one space, then the password, which may itself contain
    or start with spaces. Errors carry ``line_number``.
    """
    head, sep, password = raw.lstrip(b" ").partition(b" ")
    if not (sep and head.isdigit()):
        got = repr(_decode(raw)) if raw else "empty line"
        raise CorpusFormatError(f"expected '<count> <password>', got {got}", line_number)
    if len(head) > MAX_COUNT_DIGITS:
        raise CorpusFormatError(f"count has more than {MAX_COUNT_DIGITS} digits", line_number)
    count = int(head)
    if count < 1:
        raise CorpusFormatError(f"multiplicity must be >= 1, got {count}", line_number)
    return count, password


def _withcount_records(
    lines: list[bytes], fmt: CorpusFormat, stats: ReadStats, first_line_number: int
) -> tuple[list[bytes], list[int], list[bytes]]:
    """The (lines, counts, passwords) columns of one batch's withcount records.

    fmt.skip_empty drops an empty line or password; otherwise an empty line
    is a format error. The batch's first line is ``first_line_number``.
    """
    skip_empty = fmt.skip_empty
    kept: list[bytes] = []
    counts: list[int] = []
    passwords: list[bytes] = []
    for line_number, raw in enumerate(lines, first_line_number):
        if raw or not skip_empty:
            count, password = _split_withcount(raw, line_number)
            if password or not skip_empty:
                kept.append(raw)
                counts.append(count)
                passwords.append(password)
    stats.records += len(kept)
    stats.skipped_empty += len(lines) - len(kept)
    return kept, counts, passwords


def _record_batches(
    stream: BinaryIO, fmt: CorpusFormat, stats: ReadStats | None, limit: int | None = None
) -> Iterator[tuple[list[bytes], list[int] | None, list[bytes]]]:
    """The (lines, counts, password bytes) columns of each batch of records.

    A batch holds the records of at most _BATCH_LINES lines of one chunk. A
    plain batch has no counts (each record occurs once), and its passwords
    are its lines. ``stats.records`` counts a batch before it is yielded.
    """
    if stats is None:
        stats = ReadStats()
    withcount = fmt.kind == "withcount"
    for chunk in _line_batches(stream, stats, limit):
        first_line_number = stats.lines - len(chunk) + 1
        for i in range(0, len(chunk), _BATCH_LINES):
            lines = chunk[i:i + _BATCH_LINES]
            if withcount:
                yield _withcount_records(lines, fmt, stats, first_line_number + i)
                continue
            if fmt.skip_empty and b"" in lines:
                kept = list(filter(None, lines))
                stats.skipped_empty += len(lines) - len(kept)
                lines = kept
            stats.records += len(lines)
            yield lines, None, lines


def read_records(
    stream: BinaryIO, fmt: CorpusFormat, stats: ReadStats | None = None
) -> Iterator[PasswordRecord]:
    """Stream PasswordRecords from a binary stream, one line at a time.

    Each line yields exactly one record (empty lines produce zero-length
    records unless fmt.skip_empty). Withcount lines that do not match the
    grammar raise CorpusFormatError carrying the 1-based line number.
    """
    for _, counts, passwords in _record_batches(stream, fmt, stats):
        texts = map(_decode, passwords)
        if counts is None:
            yield from map(PasswordRecord, texts)
        else:
            yield from map(PasswordRecord, texts, counts)


def partition_offsets(path: str, parts: int) -> list[tuple[int, int]]:
    """Split a file into byte ranges aligned on line terminators.

    Returns up to ``parts`` nonempty (start, end) ranges covering the file.
    Every range ends just past a newline (or at EOF), so each line belongs
    to exactly one range and partitioned scans see exactly the same lines
    as one sequential scan.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    with open(path, "rb") as f:
        f.seek(0, 2)
        size = f.tell()
        if size == 0:
            return []
        bounds = [0]
        for i in range(1, parts):
            target = size * i // parts
            if target <= bounds[-1]:
                continue
            f.seek(target)
            # Scan forward to the next newline so the cut is line-aligned.
            while True:
                chunk = f.read(_CHUNK_BYTES)
                if not chunk:
                    target = size
                    break
                nl = chunk.find(b"\n")
                if nl >= 0:
                    target = f.tell() - len(chunk) + nl + 1
                    break
            if bounds[-1] < target < size:
                bounds.append(target)
        bounds.append(size)
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

