"""Policy expressions: parsing, compliance checks, corpus filtering.

A policy is a conjunction of attribute minima. On the command line it is
written either as a conventional name (basic8, 2word12, 3class12) or as a
comma-separated list of ``<attribute>>=<int>`` terms, for example
``length>=6,digits>=1``.

filter_corpus routes PasswordRecords; filter_stream splits a corpus stream
and writes back the bytes of each line it read. It reads the batches of
corpus._record_batches, which decides the line format, and decides and
writes a whole batch at once: attributes.batch_columns computes only the
columns the policy constrains, and decides the decoding (bytes that are
UTF-8 count one per code point, any others are Latin-1). A policy with no
minimum classifies nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, repeat
from operator import and_, ge, not_
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence

from .attributes import _ATTR_INDEX, AttributeId, batch_columns, extract_all
from .corpus import CorpusFormat, ReadStats, _record_batches

_BASIC_RE = re.compile(r"^basic(\d+)$")
_WORD_RE = re.compile(r"^(\d+)word(\d+)$")
_CLASS_RE = re.compile(r"^(\d+)class(\d+)$")
_TERM_RE = re.compile(r"^\s*([a-z]+)\s*>=\s*(\d+)\s*$")


class PolicyParseError(ValueError):
    """Bad policy spec; position is the 0-based column of the offending term."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class PolicyExpr:
    """Immutable conjunction of minima, canonically ordered.

    Constraints are stored sorted by attribute token so that structurally
    equal policies compare and render identically.
    """

    constraints: tuple[tuple[AttributeId, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for attr, _ in self.constraints:
            if attr in seen:
                raise ValueError(f"duplicate constraint for {attr.value}")
            seen.add(attr)
        canonical = tuple(sorted(self.constraints, key=lambda c: c[0].value))
        object.__setattr__(self, "constraints", canonical)

    def minima(self) -> dict[AttributeId, int]:
        return dict(self.constraints)


def parse_policy(spec: str) -> PolicyExpr:
    """Parse a policy spec, named or term-list form."""
    text = spec.strip()
    if not text:
        raise PolicyParseError("empty policy spec")
    named = _parse_named(text)
    if named is not None:
        return named
    constraints: list[tuple[AttributeId, int]] = []
    seen: dict[AttributeId, int] = {}
    offset = 0
    for term in spec.split(","):
        position = offset
        offset += len(term) + 1
        m = _TERM_RE.match(term)
        if m is None:
            raise PolicyParseError(
                f"expected '<attribute>>=<int>', got {term.strip()!r}", position
            )
        try:
            attr = AttributeId.from_token(m.group(1))
        except ValueError as exc:
            raise PolicyParseError(str(exc), position) from None
        if attr in seen:
            raise PolicyParseError(
                f"duplicate constraint for {attr.value!r}", position
            )
        seen[attr] = position
        constraints.append((attr, int(m.group(2))))
    return PolicyExpr(tuple(constraints))


def _parse_named(text: str) -> PolicyExpr | None:
    m = _BASIC_RE.match(text)
    if m:
        return PolicyExpr(((AttributeId.LENGTH, int(m.group(1))),))
    m = _WORD_RE.match(text)
    if m:
        return PolicyExpr(
            (
                (AttributeId.LENGTH, int(m.group(2))),
                (AttributeId.WORDS, int(m.group(1))),
            )
        )
    m = _CLASS_RE.match(text)
    if m:
        return PolicyExpr(
            (
                (AttributeId.LENGTH, int(m.group(2))),
                (AttributeId.CLASSES, int(m.group(1))),
            )
        )
    return None


def render_policy(expr: PolicyExpr) -> str:
    """Canonical term-list rendering; parse(render(e)) == e."""
    return ",".join(f"{attr.value}>={minimum}" for attr, minimum in expr.constraints)


def _minimum_checks(expr: PolicyExpr) -> list[tuple[int, int]]:
    """(index into extract_all's tuple, minimum) for each constraint."""
    return [(_ATTR_INDEX[attr], minimum) for attr, minimum in expr.constraints]


def complies(password: str, expr: PolicyExpr) -> bool:
    """True when the password meets every minimum in the policy."""
    values = extract_all(password)
    return all(values[idx] >= minimum for idx, minimum in _minimum_checks(expr))


@dataclass
class FilterSummary:
    """Multiplicity-weighted outcome of a filtering pass."""

    compliant: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        return self.compliant + self.rejected

    @property
    def rejected_pct(self) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.rejected / self.total

    def to_json(self) -> dict:
        return {
            "compliant": self.compliant,
            "rejected": self.rejected,
            "rejected_pct": round(self.rejected_pct, 2),
        }


def filter_corpus(
    records: Iterable,
    expr: PolicyExpr,
    on_compliant: Callable | None = None,
    on_rejected: Callable | None = None,
) -> FilterSummary:
    """Route each record by compliance, counting multiplicities.

    Every input record goes to exactly one sink; passing no sinks just
    tallies the split. Streaming, nothing buffered.
    """
    summary = FilterSummary()
    checks = _minimum_checks(expr)
    for record in records:
        values = extract_all(record.text)
        for idx, minimum in checks:
            if values[idx] < minimum:
                summary.rejected += record.multiplicity
                if on_rejected is not None:
                    on_rejected(record)
                break
        else:
            summary.compliant += record.multiplicity
            if on_compliant is not None:
                on_compliant(record)
    return summary


def filter_stream(
    stream: BinaryIO,
    fmt: CorpusFormat,
    expr: PolicyExpr,
    out: BinaryIO | None,
    reject: BinaryIO | None,
    stats: ReadStats | None = None,
) -> FilterSummary:
    """Split a binary corpus stream by compliance, writing back its lines.

    Every record's line goes to ``out`` (compliant) or ``reject`` with a
    newline, as the bytes corpus._line_batches yields: clamped, one trailing CR
    dropped, a withcount line's count and spacing kept. A None sink
    discards. The summary, ReadStats and any CorpusFormatError are those of
    filter_corpus(read_records(stream, fmt, stats), expr), but no record is
    made: each batch's constrained columns come straight from its bytes, and
    each side of a batch is written with one call.
    """
    summary = FilterSummary()
    checks = _minimum_checks(expr)
    indices = [idx for idx, _ in checks]
    for lines, counts, passwords in _record_batches(stream, fmt, stats):
        total = len(lines) if counts is None else sum(counts)
        if not checks:  # every line complies: copy the batch unclassified
            summary.compliant += total
            _write_lines(out, lines)
            continue
        passes = (
            map(ge, column, repeat(minimum))
            for column, (_, minimum) in zip(batch_columns(passwords, indices), checks)
        )
        ok = list(reduce(partial(map, and_), passes))
        kept = list(compress(lines, ok))
        compliant = len(kept) if counts is None else sum(compress(counts, ok))
        summary.compliant += compliant
        summary.rejected += total - compliant
        _write_lines(out, kept)
        if reject is not None:
            _write_lines(reject, list(compress(lines, map(not_, ok))))
    return summary


def _write_lines(sink: BinaryIO | None, lines: Sequence[bytes]) -> None:
    """Write each line and a newline with one call; nothing for no lines."""
    if sink is not None and lines:
        sink.write(b"\n".join(lines) + b"\n")


def policy_minima(minima: Mapping[AttributeId, int]) -> PolicyExpr:
    """Build an expression from an attribute -> minimum mapping."""
    return PolicyExpr(tuple(minima.items()))
