"""Streaming ingestion of leaked-password corpora.

Corpora arrive as newline-delimited files in one of two layouts: ``plain``
(one password per line) or ``withcount`` (a decimal multiplicity, one space,
then the password, the layout produced by the usual ``sort | uniq -c``
post-processing of public dumps). Both are read in a single bounded-memory
pass; files of tens of millions of lines must stream through without ever
being held in memory.

Every reader shares one loop, _line_batches: the file is read in 1 MiB
chunks, and each chunk is split into a list of the lines it completes, so
per-line Python work is left to the consumer of each list. It has three
consumers. read_records turns the lists into PasswordRecords (synth corrupt
and the library API); histogram.scan_stream counts attribute shapes from
them (hist, infer, plot); policy.filter_stream classifies each line and
writes back its bytes (filter, synth pad). The last two make no records.

Dumps are dirty by nature. A single trailing CR is dropped to tolerate CRLF
files, and pathological lines are clamped at 64 KiB (counted in
ReadStats.truncated) so a corrupt line cannot balloon memory. Lines are
decoded as UTF-8 with a byte-per-byte Latin-1 fallback so that no input can
abort a scan.

Large files can be split into contiguous byte partitions aligned on line
terminators (partition_offsets) and scanned by independent workers (seek to
the start, read up to the limit); the per-partition results are combined
downstream. Concatenating the lines of adjacent partitions is exactly one
sequential scan, so records, histograms and ReadStats do not depend on the
split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

#: Hard per-line cap; anything longer is cut here and the rest of the line
#: is discarded.
MAX_LINE_BYTES = 64 * 1024

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


_WITHCOUNT_RE = re.compile(r"^ *(\d+) ")


def parse_withcount_line(line: str) -> tuple[int, str]:
    """Split one withcount line into (multiplicity, password).

    Grammar: optional leading spaces, decimal digits, exactly one space,
    then the password, which may itself contain or start with spaces.
    """
    m = _WITHCOUNT_RE.match(line)
    if m is None:
        raise CorpusFormatError(f"expected '<count> <password>', got {line!r}")
    count = int(m.group(1))
    if count < 1:
        raise CorpusFormatError(f"multiplicity must be >= 1, got {count}")
    return count, line[m.end():]


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


def _parse_line(
    raw: bytes, fmt: CorpusFormat, stats: ReadStats, line_number: int
) -> tuple[str, int] | None:
    """Decode one line from _line_batches into (password, multiplicity).

    Counts it in stats as a record, or returns None for an empty password
    that fmt.skip_empty drops. Withcount lines that do not match the
    grammar raise CorpusFormatError carrying ``line_number``.
    """
    text, count = raw.decode("ascii") if raw.isascii() else _decode(raw), 1
    if fmt.kind == "withcount" and (raw or not fmt.skip_empty):
        if not raw:
            raise CorpusFormatError("expected '<count> <password>', got empty line", line_number)
        try:
            count, text = parse_withcount_line(text)
        except CorpusFormatError as exc:
            raise CorpusFormatError(str(exc), line_number) from None
    if fmt.skip_empty and not text:
        stats.skipped_empty += 1
        return None
    stats.records += 1
    return text, count


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
        for line_number, raw in enumerate(lines, stats.lines - len(lines) + 1):
            parsed = _parse_line(raw, fmt, stats, line_number)
            if parsed is not None:
                yield PasswordRecord._make(parsed)


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

