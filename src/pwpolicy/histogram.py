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

build_histograms counts records; scan_stream counts the passwords that
corpus._plain_records and corpus._withcount_records yield, straight from
their bytes with attributes.byte_values. Those three decide the line format
and the decoding; this module decides neither. scan_file runs scan_stream
over a file or, with threads > 1, over line-aligned partitions in worker
processes.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import BinaryIO, Iterable, Sequence

from .attributes import ATTRIBUTES, AttributeId, byte_values, extract_all
from .corpus import (
    CorpusFormat,
    PasswordRecord,
    ReadStats,
    _line_batches,
    _plain_records,
    _withcount_records,
    partition_offsets,
)

_ATTR_INDEX = {attr: i for i, attr in enumerate(ATTRIBUTES)}


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


# Safety valve for the shape-tuple accumulators below: corpora normally have
# a few thousand distinct attribute shapes, but nothing stops a pathological
# input from having one per record, so spill to the per-attribute dicts
# before the tuple dict can grow past a few tens of megabytes (scan_stream
# checks once per chunk, so it may overshoot by one chunk's lines).
_SHAPE_FLUSH = 300_000


def build_histograms(
    records: Iterable[PasswordRecord],
    attributes: Sequence[AttributeId] = ATTRIBUTES,
) -> dict[AttributeId, Histogram]:
    """Single streaming pass over records, one histogram per attribute."""
    plan = [(attr, _ATTR_INDEX[attr], {}) for attr in attributes]
    total = 0
    shapes: dict[tuple, int] = {}
    shape_get = shapes.get
    # Hot loop: runs once per record over corpora of tens of millions.
    # Counting whole attribute tuples first is ~4x cheaper per record than
    # seven separate dict updates because shapes repeat heavily.
    for text, mult in records:
        values = extract_all(text)
        total += mult
        shapes[values] = shape_get(values, 0) + mult
        if len(shapes) >= _SHAPE_FLUSH:
            _flush_shapes(shapes, plan)
    return _histograms(shapes, plan, total)


def scan_stream(
    stream: BinaryIO,
    fmt: CorpusFormat,
    attributes: Sequence[AttributeId] = ATTRIBUTES,
    stats: ReadStats | None = None,
    limit: int | None = None,
) -> dict[AttributeId, Histogram]:
    """Histograms of a binary corpus stream, read in one pass.

    Gives the same histograms and ReadStats as
    build_histograms(read_records(stream, fmt, stats, limit), attributes),
    and raises the same CorpusFormatError, without making a record per line.
    """
    if stats is None:
        stats = ReadStats()
    plan = [(attr, _ATTR_INDEX[attr], {}) for attr in attributes]
    total = 0
    shapes: Counter = Counter()
    withcount = fmt.kind == "withcount"
    for lines in _line_batches(stream, stats, limit):
        if withcount:
            for _, count, password in _withcount_records(lines, fmt, stats):
                total += count
                shapes[byte_values(password)] += count
        else:
            lines = _plain_records(lines, fmt, stats)
            total += len(lines)
            # Counter.update counts in C.
            shapes.update(map(byte_values, lines))
        if len(shapes) >= _SHAPE_FLUSH:
            _flush_shapes(shapes, plan)
    return _histograms(shapes, plan, total)


def _flush_shapes(shapes: dict, plan: list) -> None:
    """Spill shape counts into the per-attribute counts and empty shapes."""
    for values, mult in shapes.items():
        for _, idx, counts in plan:
            v = values[idx]
            if v in counts:
                counts[v] += mult
            else:
                counts[v] = mult
    shapes.clear()


def _histograms(shapes: dict, plan: list, total: int) -> dict[AttributeId, Histogram]:
    _flush_shapes(shapes, plan)
    return {attr: Histogram(attr, counts, total) for attr, _, counts in plan}


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
