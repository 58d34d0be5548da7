import io
import random
from fractions import Fraction

import pytest

from pwpolicy import corpus
from pwpolicy.attributes import ATTRIBUTES, AttributeId, extract_all
from pwpolicy.corpus import (
    CorpusFormat,
    CorpusFormatError,
    PasswordRecord,
    ReadStats,
    partition_offsets,
    read_records,
)
from pwpolicy.histogram import (
    Histogram,
    build_histograms,
    format_multiplier,
    merge,
    multiplier_table,
    rounded_multiplier,
    scan_file,
    scan_stream,
    table_rows_json,
    table_to_csv,
)
import refdata

TOLERANCE = Fraction(1, 10**9)


def hist_of(attr: AttributeId, counts: dict) -> Histogram:
    return Histogram(attr, dict(counts), sum(counts.values()))


def test_build_histograms_small_corpus():
    records = [
        PasswordRecord("abc", 2),
        PasswordRecord("ab1", 1),
        PasswordRecord("A B", 1),
    ]
    hists = build_histograms(records)
    assert hists[AttributeId.LENGTH].counts == {3: 4}
    assert hists[AttributeId.LENGTH].total == 4
    assert hists[AttributeId.WORDS].counts == {1: 3, 2: 1}
    assert hists[AttributeId.LOWERS].counts == {3: 2, 2: 1, 0: 1}
    assert hists[AttributeId.UPPERS].counts == {0: 3, 2: 1}
    assert hists[AttributeId.DIGITS].counts == {0: 3, 1: 1}
    assert hists[AttributeId.SYMBOLS].counts == {0: 3, 1: 1}
    assert hists[AttributeId.CLASSES].counts == {1: 2, 2: 2}


def test_build_histograms_respects_attribute_subset():
    hists = build_histograms([PasswordRecord("xy", 1)], [AttributeId.LENGTH])
    assert set(hists) == {AttributeId.LENGTH}


def test_build_histograms_empty_input():
    hists = build_histograms([])
    for attr in ATTRIBUTES:
        assert hists[attr].counts == {}
        assert hists[attr].total == 0


def _histograms_of_extract_all(records):
    """build_histograms written the obvious way: extract_all per record."""
    hists = {attr: {} for attr in ATTRIBUTES}
    for text, mult in records:
        for attr, v in zip(ATTRIBUTES, extract_all(text)):
            hists[attr][v] = hists[attr].get(v, 0) + mult
    return {attr: (counts, sum(mult for _, mult in records)) for attr, counts in hists.items()}


def test_build_histograms_many_distinct_shapes():
    # More distinct shapes than the internal spill threshold handles per
    # batch still aggregate correctly (exercised with a tiny monkeypatch).
    # Over _BATCH_LINES records with mixed multiplicities span several
    # batches, and a text holding "\n" must not split into two passwords.
    import pwpolicy.histogram as h

    rng = random.Random(5)
    pool = "ab1 !\n\u00e9\U0001f511"
    records = [
        PasswordRecord("a" * (i % 7 + 1) + "1" * (i % 5), 1) for i in range(500)
    ] + [
        PasswordRecord("".join(rng.choice(pool) for _ in range(rng.randrange(12))),
                       rng.choice((1, 1, 2, 7)))
        for _ in range(5000)
    ] + [PasswordRecord("two\nlines", 3), PasswordRecord("\n", 1), PasswordRecord("ab\n\n", 1)]
    assert len(records) > corpus._BATCH_LINES
    want = _histograms_of_extract_all(records)
    assert _plain_hists(build_histograms(records)) == want
    old = h._SHAPE_FLUSH
    h._SHAPE_FLUSH = 3
    try:
        spilled = build_histograms(records)
    finally:
        h._SHAPE_FLUSH = old
    assert _plain_hists(spilled) == want


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_scan_many_distinct_shapes(tmp_path, monkeypatch, kind):
    # The file scan spills through the same code as build_histograms.
    import pwpolicy.histogram as h

    texts = ["a" * (i % 7 + 1) + "1" * (i % 5) + "\u00e9" * (i % 3) for i in range(500)]
    prefix = "3 " if kind == "withcount" else ""
    path = tmp_path / "c.txt"
    path.write_text("".join(f"{prefix}{t}\n" for t in texts), encoding="utf-8")
    fmt = CorpusFormat(kind)
    expected = build_histograms(PasswordRecord(t, 3 if prefix else 1) for t in texts)
    monkeypatch.setattr(h, "_SHAPE_FLUSH", 3)
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 256)
    stats = ReadStats()
    spilled = scan_file(str(path), fmt, stats=stats)
    for attr in ATTRIBUTES:
        assert spilled[attr].counts == expected[attr].counts
        assert spilled[attr].total == expected[attr].total
    assert (stats.lines, stats.records) == (500, 500)


def test_length_table_matches_hand_oracle():
    hist = hist_of(AttributeId.LENGTH, refdata.LENGTH_FREQS)
    table = multiplier_table(hist)
    exact = refdata.exact_multipliers(refdata.LENGTH_FREQS)
    assert [row.value for row in table.rows] == list(range(1, 8))
    for row in table.rows:
        assert row.frequency == refdata.LENGTH_FREQS[row.value]
        assert row.cumulative == refdata.LENGTH_CUM[row.value]
        if row.value == 7:
            assert row.multiplier is None
        else:
            assert abs(Fraction(row.multiplier) - exact[row.value]) < TOLERANCE
            assert format_multiplier(row.multiplier) == refdata.LENGTH_MULT_DISPLAY[row.value]


def test_length_table_from_withcount_stream():
    data = "\n".join(refdata.withcount_lines("length", refdata.LENGTH_FREQS)) + "\n"
    hists = scan_stream(
        io.BytesIO(data.encode()), CorpusFormat("withcount"), [AttributeId.LENGTH]
    )
    assert hists[AttributeId.LENGTH].counts == refdata.LENGTH_FREQS
    assert hists[AttributeId.LENGTH].total == sum(refdata.LENGTH_FREQS.values())


def test_uppers_table_multipliers_stay_flat():
    table = multiplier_table(hist_of(AttributeId.UPPERS, refdata.UPPERS_FREQS))
    for row in table.rows[:-1]:
        assert format_multiplier(row.multiplier) == refdata.UPPERS_MULT_DISPLAY[row.value]
        assert rounded_multiplier(row.multiplier) <= 1.08
    assert table.rows[-1].multiplier is None


def test_words_and_classes_tables():
    words = multiplier_table(hist_of(AttributeId.WORDS, refdata.WORDS_FREQS))
    got = {r.value: format_multiplier(r.multiplier) for r in words.rows[:-1]}
    assert got == refdata.WORDS_MULT_DISPLAY
    classes = multiplier_table(hist_of(AttributeId.CLASSES, refdata.CLASSES_FREQS))
    got = {r.value: format_multiplier(r.multiplier) for r in classes.rows[:-1]}
    assert got == refdata.CLASSES_MULT_DISPLAY


def test_multiplier_table_fills_gaps_with_zero_rows():
    table = multiplier_table(hist_of(AttributeId.LENGTH, {2: 10, 5: 30}))
    assert [(r.value, r.frequency, r.cumulative) for r in table.rows] == [
        (2, 10, 10),
        (3, 0, 10),
        (4, 0, 10),
        (5, 30, 40),
    ]
    assert table.rows[1].multiplier == 1.0
    assert table.rows[2].multiplier == 4.0
    assert table.rows[3].multiplier is None


def test_multiplier_table_single_value():
    table = multiplier_table(hist_of(AttributeId.DIGITS, {3: 12}))
    assert len(table.rows) == 1
    assert table.rows[0].multiplier is None


def test_multiplier_table_empty_histogram_rejected():
    with pytest.raises(ValueError, match="empty histogram"):
        multiplier_table(Histogram(AttributeId.LENGTH, {}, 0))


def test_merge_basics():
    a = hist_of(AttributeId.LENGTH, {1: 2, 3: 4})
    b = hist_of(AttributeId.LENGTH, {3: 1, 9: 7})
    m = merge(a, b)
    assert m.counts == {1: 2, 3: 5, 9: 7}
    assert m.total == 14
    empty = Histogram(AttributeId.LENGTH, {}, 0)
    assert merge(a, empty).counts == a.counts
    assert merge(empty, a).total == a.total


def test_merge_rejects_attribute_mismatch():
    a = hist_of(AttributeId.LENGTH, {1: 1})
    b = hist_of(AttributeId.DIGITS, {1: 1})
    with pytest.raises(ValueError, match="cannot merge"):
        merge(a, b)


def test_merge_associative_commutative_sample():
    rng = random.Random(11)
    for _ in range(50):
        hs = [
            hist_of(
                AttributeId.WORDS,
                {rng.randrange(0, 6): rng.randrange(1, 100) for _ in range(rng.randrange(1, 5))},
            )
            for _ in range(3)
        ]
        a, b, c = hs
        ab_c = merge(merge(a, b), c)
        a_bc = merge(a, merge(b, c))
        ba = merge(b, a)
        assert ab_c.counts == a_bc.counts
        assert ab_c.total == a_bc.total
        assert ba.counts == merge(a, b).counts


def test_scaled_preserves_multipliers_exactly():
    hist = hist_of(AttributeId.LENGTH, refdata.LENGTH_FREQS)
    base = multiplier_table(hist)
    for factor in (2, 3, 17, 1000):
        scaled = multiplier_table(hist.scaled(factor))
        assert [r.multiplier for r in scaled.rows] == [r.multiplier for r in base.rows]
        assert [r.cumulative for r in scaled.rows] == [r.cumulative * factor for r in base.rows]
    with pytest.raises(ValueError):
        hist.scaled(0)


def test_format_multiplier_rounds_halves_up():
    assert format_multiplier(None) == ""
    assert format_multiplier(1.0) == "1.00"
    assert format_multiplier(2.375) == "2.38"
    assert format_multiplier(6388 / 3842) == "1.66"
    assert format_multiplier(876597 / 6388) == "137.23"
    # 1.125 is exactly representable, so half-up is observable.
    assert format_multiplier(1.125) == "1.13"
    assert rounded_multiplier(1.125) == 1.13
    assert rounded_multiplier(None) is None


def test_table_to_csv_last_cell_empty():
    table = multiplier_table(hist_of(AttributeId.LENGTH, {1: 2, 2: 6}))
    csv = table_to_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0] == "value,frequency,cumulative,multiplier"
    assert lines[1] == "1,2,2,4.00"
    assert lines[2] == "2,6,8,"


def test_table_rows_json_matches_csv_numbers():
    table = multiplier_table(hist_of(AttributeId.WORDS, refdata.WORDS_FREQS))
    rows = table_rows_json(table)
    assert rows[1] == {
        "value": 1,
        "frequency": 25460,
        "cumulative": 27960,
        "multiplier": 39.39,
    }
    assert rows[-1]["multiplier"] is None


def test_scan_file_sequential_and_parallel_agree(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "corpus.txt"
    with path.open("w") as f:
        for i in range(5000):
            f.write(f"pw{i}{'!' * rng.randrange(0, 3)}{'A' * rng.randrange(0, 2)}\n")
    fmt = CorpusFormat("plain")
    seq_stats = ReadStats()
    seq = scan_file(str(path), fmt, ATTRIBUTES, threads=1, stats=seq_stats)
    par_stats = ReadStats()
    par = scan_file(str(path), fmt, ATTRIBUTES, threads=3, stats=par_stats)
    for attr in ATTRIBUTES:
        assert seq[attr].counts == par[attr].counts
        assert seq[attr].total == par[attr].total
    # Small file: parallel path falls back to sequential, stats still match.
    assert (seq_stats.lines, seq_stats.records) == (par_stats.lines, par_stats.records)
    with pytest.raises(ValueError):
        scan_file(str(path), fmt, threads=0)


def test_scan_file_parallel_large_enough_to_partition(tmp_path):
    path = tmp_path / "big.txt"
    line = "some-password-material-123!\n"
    with path.open("w") as f:
        for i in range(200_000):
            f.write(f"{i}{line}")
    fmt = CorpusFormat("plain")
    seq = scan_file(str(path), fmt, [AttributeId.LENGTH, AttributeId.DIGITS], threads=1)
    par = scan_file(str(path), fmt, [AttributeId.LENGTH, AttributeId.DIGITS], threads=4)
    assert seq[AttributeId.LENGTH].counts == par[AttributeId.LENGTH].counts
    assert seq[AttributeId.DIGITS].counts == par[AttributeId.DIGITS].counts


# --- scan_stream against build_histograms(read_records(...)) ---------------

def _reference_lines(data: bytes, max_line: int) -> tuple[list[bytes], int]:
    """The corpus line rules written the obvious way, for whole-buffer input."""
    pieces = data.split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    truncated = sum(len(p) > max_line for p in pieces)
    lines = [p[:max_line] for p in pieces]
    return [p[:-1] if p.endswith(b"\r") else p for p in lines], truncated


def _dirty_corpus(seed: int, max_line: int, withcount: bool, final_newline: bool) -> bytes:
    rng = random.Random(seed)
    bodies = [
        lambda: b"",
        lambda: b"pw%d" % rng.randrange(1000),
        lambda: b"Hunter%d!" % rng.randrange(100),
        lambda: b"two words",
        lambda: "café".encode("utf-8") + b"%d" % rng.randrange(10),
        lambda: b"caf\xe9%d" % rng.randrange(10),  # invalid UTF-8: Latin-1
        lambda: "пароль".encode("utf-8"),
        lambda: b"x" * rng.randrange(max_line - 3, max_line + 3),
        lambda: b"ab1" * rng.randrange(max_line, 3 * max_line),
        lambda: b"z" * rng.randrange(1, 9000),
    ]
    ends = [b"\n"] * 6 + [b"\r\n", b"\r\r\n"]
    out = []
    for _ in range(400):
        body = rng.choice(bodies)()
        end = rng.choice(ends)
        if withcount and (body or rng.random() < 0.5):
            body = b"%d %s" % (rng.randrange(1, 50), body)
        elif withcount:
            end = end[-1:]  # an empty line, not a lone CR
        out.append(body + end)
    if not final_newline:
        out.append(b"1 last\r" if rng.random() < 0.5 else b"1 last")
    return b"".join(out)


def _plain_hists(hists):
    return {a: (h.counts, h.total) for a, h in hists.items()}


def _stats_tuple(stats: ReadStats):
    return (stats.lines, stats.records, stats.skipped_empty, stats.truncated)


@pytest.mark.parametrize(
    "chunk, max_line",
    [(4096, corpus.MAX_LINE_BYTES), (4096, 300), (97, 40), (1 << 20, corpus.MAX_LINE_BYTES)],
)
@pytest.mark.parametrize("kind", ["plain", "withcount"])
@pytest.mark.parametrize("skip_empty", [False, True])
@pytest.mark.parametrize("final_newline", [False, True])
def test_scan_stream_equals_records_path(monkeypatch, chunk, max_line, kind, skip_empty,
                                         final_newline):
    # Small chunks put overlong lines, CRLF pairs and multi-byte characters
    # across chunk boundaries; a small line cap also puts whole overlong
    # lines inside one chunk.
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(corpus, "MAX_LINE_BYTES", max_line)
    withcount = kind == "withcount"
    fmt = CorpusFormat(kind, skip_empty=skip_empty)
    for seed in range(3):
        data = _dirty_corpus(seed, max_line, withcount, final_newline)
        lines, truncated = _reference_lines(data, max_line)
        ref_stats = ReadStats()
        try:
            records = list(read_records(io.BytesIO(data), fmt, ref_stats))
        except CorpusFormatError as ref_exc:
            # Withcount without skip_empty: the first empty line is an error.
            assert withcount and not skip_empty
            with pytest.raises(CorpusFormatError) as exc:
                scan_stream(io.BytesIO(data), fmt)
            assert exc.value.line_number == ref_exc.line_number == lines.index(b"") + 1
            continue
        assert (ref_stats.lines, ref_stats.truncated) == (len(lines), truncated)
        if not withcount:
            kept = [line for line in lines if line or not skip_empty]
            assert [r.text.encode("utf-8") for r in records if r.text.isascii()] == [
                line for line in kept if line.isascii()
            ]
        got_stats = ReadStats()
        got = scan_stream(io.BytesIO(data), fmt, ATTRIBUTES, got_stats)
        assert _plain_hists(got) == _plain_hists(build_histograms(records))
        assert _stats_tuple(got_stats) == _stats_tuple(ref_stats)


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_scan_stream_limit_partitions(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 4096)
    fmt = CorpusFormat(kind, skip_empty=True)
    path = tmp_path / "c.txt"
    path.write_bytes(_dirty_corpus(7, corpus.MAX_LINE_BYTES, kind == "withcount", False))
    ref_stats = ReadStats()
    with path.open("rb") as f:
        expected = build_histograms(read_records(f, fmt, ref_stats))
    for parts in (2, 5, 16):
        stats = ReadStats()
        merged = None
        for start, end in partition_offsets(str(path), parts):
            with path.open("rb") as f:
                f.seek(start)
                part = scan_stream(f, fmt, ATTRIBUTES, stats, limit=end - start)
            merged = part if merged is None else {a: merge(merged[a], part[a]) for a in part}
        assert _plain_hists(merged) == _plain_hists(expected)
        assert _stats_tuple(stats) == _stats_tuple(ref_stats)


def _batched_corpus(seed: int, withcount: bool, empty_lines: bool) -> bytes:
    """Over 4 MiB of short dirty lines: each 1 MiB chunk holds many batches."""
    rng = random.Random(seed)
    bodies = [
        lambda: b"pw%d" % rng.randrange(10**6),
        lambda: b"Hunter%d!" % rng.randrange(100),
        lambda: b"two words %d" % rng.randrange(10),
        lambda: "caf\u00e9%d".encode("utf-8") % rng.randrange(10),
        lambda: b"caf\xe9%d" % rng.randrange(10),  # invalid UTF-8: Latin-1
        lambda: "\u043f\u0430\u0440\u043e\u043b\u044c\U0001f511".encode("utf-8"),
        lambda: b"",
    ]
    out = []
    size = 0
    while size < (1 << 22) + 4096:
        body = rng.choice(bodies)()
        if rng.random() < 2e-5:
            body = b"ab1" * 25_000  # clamped at 64 KiB
        if withcount:
            body = b"%7d %s" % (rng.randrange(1, 50), body)
        line = body + (b"\r\n" if rng.random() < 0.05 else b"\n")
        if empty_lines and rng.random() < 0.02:
            line = b"\n"
        out.append(line)
        size += len(line)
    out.append(b"1 " + b"z" * 70_000 + b"\r\n")
    return b"".join(out)


@pytest.mark.parametrize("kind", ["plain", "withcount"])
@pytest.mark.parametrize("skip_empty", [False, True])
def test_scan_file_batches_equal_records_path(tmp_path, kind, skip_empty):
    withcount = kind == "withcount"
    fmt = CorpusFormat(kind, skip_empty=skip_empty)
    path = tmp_path / "c.txt"
    # Withcount without skip_empty rejects empty lines, but not empty passwords.
    path.write_bytes(_batched_corpus(11, withcount, skip_empty or not withcount))
    assert path.stat().st_size > (1 << 22)  # big enough to partition
    ref_stats = ReadStats()
    with path.open("rb") as f:
        expected = build_histograms(read_records(f, fmt, ref_stats))
    assert ref_stats.truncated >= 1 and ref_stats.lines > 50 * 2048
    for threads in (1, 2):
        stats = ReadStats()
        got = scan_file(str(path), fmt, ATTRIBUTES, threads, stats)
        assert _plain_hists(got) == _plain_hists(expected)
        assert _stats_tuple(stats) == _stats_tuple(ref_stats)


@pytest.mark.parametrize(
    "data, line_number",
    [
        (b"1 a\n2 b\noops\n", 3),
        (b"1 a\r\n\n", 2),
        (b"1 a\n" * 3000 + b"0 zero\n", 3001),
        pytest.param(b"1 a\n" * 7000 + b"oops\n", 7001, id="7000 good lines-7001"),
        ("1 a\n٣ pw\n".encode("utf-8"), 2),
        ("１２ pw\n".encode("utf-8"), 1),
    ],
)
def test_scan_stream_withcount_error_line_number(monkeypatch, data, line_number):
    fmt = CorpusFormat("withcount")
    # A chunk of 1 << 14 bytes holds 4096 lines "1 a": line 3001 lies past
    # the first _BATCH_LINES lines of the first chunk, line 7001 past those
    # of the second.
    for chunk in (4096, 1 << 14):
        monkeypatch.setattr(corpus, "_CHUNK_BYTES", chunk)
        with pytest.raises(CorpusFormatError) as ref_exc:
            list(read_records(io.BytesIO(data), fmt))
        with pytest.raises(CorpusFormatError) as exc:
            scan_stream(io.BytesIO(data), fmt)
        assert exc.value.line_number == ref_exc.value.line_number == line_number
