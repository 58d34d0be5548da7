"""Attribute histograms and cumulative-frequency multiplier tables.

The core signal for policy inference is the multiplier series of an
attribute histogram. With cum(v) the total multiplicity of records whose
attribute value is <= v, the multiplier at v is cum(v+1) / cum(v). A value
just below an enforced minimum collects only noise, so its cumulative count
is tiny compared to the next one and the multiplier spikes there; inside an
unconstrained region the series hugs 1.

Histograms are plain value -> multiplicity maps and merge by pointwise
addition, which is associative and commutative. That makes partitioned
scans exact: building per-partition histograms and merging them yields
bit-identical tables, and the same ReadStats, no matter how (or whether)
the input was split.

One loop, _count_shapes, does all the counting: it classifies batches of
password bytes with attributes.batch_values and counts whole attribute
shapes before spilling them into the histograms. scan_stream feeds it the
batches of corpus._record_batches, which decides the line format and
yields the bytes as read; batch_values decides how they decode. This module
decides neither. build_histograms feeds it batches of PasswordRecords,
whose texts it encodes as ASCII. scan_file runs scan_stream over a file or,
with threads > 1, over line-aligned partitions in worker processes.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, Sequence

from .attributes import (
    _ATTR_INDEX,
    ATTRIBUTES,
    AttributeId,
    batch_values,
    complete_values,
)
from .corpus import (
    _BATCH_LINES,
    CorpusFormat,
    PasswordRecord,
    ReadStats,
    _record_batches,
    partition_offsets,
)

@dataclass
class Histogram:
    """Multiplicity-weighted counts of one attribute over a corpus."""

    attribute: AttributeId
    counts: dict[int, int]
    total: int

    def scaled(self, factor: int) -> "Histogram":
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return Histogram(
            self.attribute,
            {v: n * factor for v, n in self.counts.items()},
            self.total * factor,
        )


@dataclass(frozen=True)
class MultiplierRow:
    value: int
    frequency: int
    cumulative: int
    multiplier: float | None


@dataclass
class MultiplierTable:
    """Rows spanning [v0, vmax] with cumulative counts and multipliers.

    Unobserved values inside the span appear as zero-frequency rows so the
    multiplier series is defined at every step. Values below the smallest
    observed one are excluded entirely; giving them rows would mean dividing
    by a cumulative count of zero. Exactly the last row has no multiplier.
    """

    attribute: AttributeId
    rows: list[MultiplierRow]
    total: int


# Safety valve for the shape accumulator below: corpora normally have a few
# thousand distinct attribute shapes, but nothing stops a pathological input
# from having one per record, so spill to the per-attribute dicts before the
# shape Counter can grow past a few tens of megabytes (_count_shapes checks
# once per batch, so it may overshoot by one batch's records).
_SHAPE_FLUSH = 300_000


def build_histograms(
    records: Iterable[PasswordRecord],
    attributes: Sequence[AttributeId] = ATTRIBUTES,
) -> dict[AttributeId, Histogram]:
    """Single streaming pass over records, one histogram per attribute."""
    return _count_shapes(_text_batches(records), attributes)


def _text_batches(
    records: Iterable[PasswordRecord],
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], list[bytes]]]:
    """The (texts, counts, password bytes) columns of each _BATCH_LINES records.

    Each text becomes its ASCII encoding with every other code point, and
    any "\n", replaced by "?". All of these are symbols and break letter
    runs, so batch_values gives each text's extract_all values.
    """
    records = iter(records)
    while batch := list(islice(records, _BATCH_LINES)):
        texts, counts = zip(*batch)
        joined = "\n".join(texts)
        if joined.count("\n") >= len(texts):  # a text holds "\n"
            joined = "\n".join(text.replace("\n", "?") for text in texts)
        yield texts, counts, joined.encode("ascii", "replace").split(b"\n")


def scan_stream(
    stream: BinaryIO,
    fmt: CorpusFormat,
    attributes: Sequence[AttributeId] = ATTRIBUTES,
    stats: ReadStats | None = None,
    limit: int | None = None,
) -> dict[AttributeId, Histogram]:
    """Histograms of a binary corpus stream, read in one pass.

    Gives the same histograms and ReadStats as
    build_histograms(read_records(stream, fmt, stats), attributes), and
    raises the same CorpusFormatError, without making a record per line.
    Reads at most ``limit`` bytes when given (a partition scan).
    """
    return _count_shapes(_record_batches(stream, fmt, stats, limit), attributes)


def _count_shapes(
    batches: Iterable[tuple[Sequence, Sequence[int] | None, Sequence[bytes]]],
    attributes: Sequence[AttributeId],
) -> dict[AttributeId, Histogram]:
    """Histograms of (lines, counts, password bytes) batches.

    A batch without counts holds each password once. Shapes repeat
    heavily, so whole 5-tuples of batch_values are counted first, and
    spilled into one count per attribute value only at the end or when
    _SHAPE_FLUSH distinct shapes have piled up.
    """
    plan = [(attr, _ATTR_INDEX[attr], {}) for attr in attributes]
    total = 0
    shapes: Counter = Counter()
    for _, counts, passwords in batches:
        if counts is None:
            total += len(passwords)
            # Counter.update counts in C.
            shapes.update(batch_values(passwords))
        else:
            total += sum(counts)
            for values, count in zip(batch_values(passwords), counts):
                shapes[values] += count
        if len(shapes) >= _SHAPE_FLUSH:
            _flush_shapes(shapes, plan)
    _flush_shapes(shapes, plan)
    return {attr: Histogram(attr, counts, total) for attr, _, counts in plan}


def _flush_shapes(shapes: Counter, plan: list) -> None:
    """Spill shape counts into the per-attribute counts and empty shapes."""
    for values, mult in shapes.items():
        values = complete_values(values)
        for _, idx, counts in plan:
            v = values[idx]
            if v in counts:
                counts[v] += mult
            else:
                counts[v] = mult
    shapes.clear()


def merge(a: Histogram, b: Histogram) -> Histogram:
    """Pointwise sum of two histograms of the same attribute."""
    if a.attribute is not b.attribute:
        raise ValueError(
            f"cannot merge histograms of {a.attribute.value} and {b.attribute.value}"
        )
    counts = dict(a.counts)
    for v, n in b.counts.items():
        counts[v] = counts.get(v, 0) + n
    return Histogram(a.attribute, counts, a.total + b.total)


def multiplier_table(hist: Histogram) -> MultiplierTable:
    """Derive the cumulative/multiplier table from one histogram.

    Multipliers are exact integer ratios evaluated in double precision
    (well beyond 15 significant digits for realistic corpus sizes); any
    2-decimal rounding happens only at the display layer.
    """
    if not hist.counts:
        raise ValueError(f"empty histogram for {hist.attribute.value}")
    v0 = min(hist.counts)
    vmax = max(hist.counts)
    rows: list[MultiplierRow] = []
    cum = 0
    cums: list[int] = []
    span = range(v0, vmax + 1)
    for v in span:
        cum += hist.counts.get(v, 0)
        cums.append(cum)
    for i, v in enumerate(span):
        if i + 1 < len(cums):
            mult = cums[i + 1] / cums[i]
        else:
            mult = None
        rows.append(MultiplierRow(v, hist.counts.get(v, 0), cums[i], mult))
    return MultiplierTable(hist.attribute, rows, hist.total)


def format_multiplier(value: float | None) -> str:
    """Render a multiplier with two decimals, rounding halves up."""
    if value is None:
        return ""
    return str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def rounded_multiplier(value: float | None) -> float | None:
    """The display rounding as a number, for CSV/JSON parity."""
    if value is None:
        return None
    return float(format_multiplier(value))


def table_to_csv(table: MultiplierTable) -> str:
    """CSV rendering; the last row's multiplier cell is empty."""
    lines = ["value,frequency,cumulative,multiplier"]
    for row in table.rows:
        lines.append(
            f"{row.value},{row.frequency},{row.cumulative},{format_multiplier(row.multiplier)}"
        )
    return "\n".join(lines) + "\n"


def table_rows_json(table: MultiplierTable) -> list[dict]:
    """Row dicts carrying the same numbers as the CSV rendering."""
    return [
        {
            "value": row.value,
            "frequency": row.frequency,
            "cumulative": row.cumulative,
            "multiplier": rounded_multiplier(row.multiplier),
        }
        for row in table.rows
    ]


def _scan_partition(
    path: str,
    start: int,
    end: int,
    fmt: CorpusFormat,
    attributes: tuple[AttributeId, ...],
) -> tuple[dict[AttributeId, Histogram], ReadStats]:
    # Worker entry point: module-level so it pickles; so do its arguments
    # and its result.
    stats = ReadStats()
    with open(path, "rb") as f:
        f.seek(start)
        hists = scan_stream(f, fmt, attributes, stats, limit=end - start)
    return hists, stats


def scan_file(
    path: str,
    fmt: CorpusFormat,
    attributes: Sequence[AttributeId] = ATTRIBUTES,
    threads: int = 1,
    stats: ReadStats | None = None,
) -> dict[AttributeId, Histogram]:
    """Build histograms for a corpus file, optionally in parallel.

    With threads > 1 the file is split into line-aligned byte partitions
    scanned by worker processes and the partial histograms are merged.
    Merging is order-insensitive, so results are identical for any thread
    count. Falls back to one sequential pass for small files.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    size = os.path.getsize(path)
    if threads == 1 or size < (1 << 22):
        with open(path, "rb") as f:
            return scan_stream(f, fmt, attributes, stats)
    # Imported here: it pulls in multiprocessing, which only this branch
    # uses, and every other command would pay for it at start-up.
    from concurrent.futures import ProcessPoolExecutor

    parts = partition_offsets(path, threads)
    merged: dict[AttributeId, Histogram] = {
        attr: Histogram(attr, {}, 0) for attr in attributes
    }
    with ProcessPoolExecutor(max_workers=min(threads, len(parts))) as pool:
        futures = [
            pool.submit(_scan_partition, path, start, end, fmt, tuple(attributes))
            for start, end in parts
        ]
        for fut in futures:
            hists, part_stats = fut.result()
            for attr in attributes:
                merged[attr] = merge(merged[attr], hists[attr])
            if stats is not None:
                stats.add(part_stats)
    return merged
