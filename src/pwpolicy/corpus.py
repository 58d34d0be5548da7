"""Streaming ingestion of leaked-password corpora.

Corpora arrive as newline-delimited files in one of two layouts: ``plain``
(one password per line) or ``withcount`` (a multiplicity in ASCII digits,
one space, then the password, the layout produced by the usual ``sort |
uniq -c`` post-processing of public dumps). Both are read in a single
bounded-memory pass; files of tens of millions of lines must stream
through without ever being held in memory.

Every reader shares one loop, _line_batches: the file is read in 1 MiB
chunks, and each chunk is split into a list of the lines it completes, so
per-line Python work is left to the consumer of each list. The line format
lives in two helpers that every consumer calls: _plain_records (the
skip-empty rule) and _withcount_records (that rule and the count grammar,
_split_withcount). read_records makes PasswordRecords from them (synth
corrupt and the library API). The other two consumers make no records:
histogram.scan_stream counts attribute shapes (hist, infer, plot),
classifying a batch of lines at a time with attributes.batch_values, and
policy.filter_stream writes back each line's bytes (filter, synth pad),
classifying one password at a time with attributes.byte_values. Both
classifiers read bytes that are UTF-8 as UTF-8 and any others as Latin-1,
as _decode does.

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


def parse_withcount_line(line: str) -> tuple[int, str]:
    """Split one withcount line into (multiplicity, password).

    Grammar: optional leading spaces, at most MAX_COUNT_DIGITS ASCII decimal
    digits, exactly one space, then the password, which may itself contain
    or start with spaces.
    """
    raw = line.encode("utf-8", "surrogatepass")
    count, password = _split_withcount(raw)
    # The count prefix is ASCII: as many bytes as code points.
    return count, line[len(raw) - len(password):]


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
    """parse_withcount_line on a line's bytes; errors carry ``line_number``."""
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


def _plain_records(lines: list[bytes], fmt: CorpusFormat, stats: ReadStats) -> list[bytes]:
    """One plain chunk's record lines: all, less the empty ones fmt.skip_empty drops."""
    if fmt.skip_empty and b"" in lines:
        kept = list(filter(None, lines))
        stats.skipped_empty += len(lines) - len(kept)
        lines = kept
    stats.records += len(lines)
    return lines


def _withcount_records(
    lines: list[bytes], fmt: CorpusFormat, stats: ReadStats
) -> Iterator[tuple[bytes, int, bytes]]:
    """(line, count, password bytes) of each record in one withcount chunk.

    fmt.skip_empty drops an empty line or password; otherwise an empty line
    is a format error. ``stats.records`` is counted when the chunk is done.
    """
    skip_empty = fmt.skip_empty
    records = skipped = 0
    for line_number, raw in enumerate(lines, stats.lines - len(lines) + 1):
        if raw or not skip_empty:
            count, password = _split_withcount(raw, line_number)
            if password or not skip_empty:
                records += 1
                yield raw, count, password
                continue
        skipped += 1
    stats.records += records
    stats.skipped_empty += skipped


def read_records(
    stream: BinaryIO,
    fmt: CorpusFormat,
    stats: ReadStats | None = None,
    limit: int | None = None,
) -> Iterator[PasswordRecord]:
    """Stream PasswordRecords from a binary stream, one line at a time.

    Each line yields exactly one record (empty lines produce zero-length
    records unless fmt.skip_empty). Withcount lines that do not match the
    grammar raise CorpusFormatError carrying the 1-based line number.
    """
    if stats is None:
        stats = ReadStats()
    for lines in _line_batches(stream, stats, limit):
        if fmt.kind == "withcount":
            for _, count, password in _withcount_records(lines, fmt, stats):
                yield PasswordRecord(_decode(password), count)
        else:
            for raw in _plain_records(lines, fmt, stats):
                yield PasswordRecord(_decode(raw))


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

