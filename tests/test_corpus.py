import io

import pytest
from hypothesis import given, strategies as st

from pwpolicy.corpus import (
    MAX_LINE_BYTES,
    CorpusFormat,
    CorpusFormatError,
    PasswordRecord,
    ReadStats,
    partition_offsets,
    read_records,
)
from pwpolicy.histogram import merge, scan_stream

PLAIN = CorpusFormat("plain")
WITHCOUNT = CorpusFormat("withcount")


def scan(data: bytes, fmt: CorpusFormat, stats: ReadStats | None = None):
    return list(read_records(io.BytesIO(data), fmt, stats))


def test_plain_basic():
    stats = ReadStats()
    records = scan(b"alpha\nbeta\ngamma", PLAIN, stats)
    assert records == [
        PasswordRecord("alpha", 1),
        PasswordRecord("beta", 1),
        PasswordRecord("gamma", 1),
    ]
    assert stats.lines == 3
    assert stats.records == 3
    assert stats.truncated == 0


def test_plain_empty_lines_become_empty_records():
    assert scan(b"a\n\nb\n", PLAIN) == [
        PasswordRecord("a", 1),
        PasswordRecord("", 1),
        PasswordRecord("b", 1),
    ]


def test_skip_empty_counts_and_drops():
    stats = ReadStats()
    records = scan(b"\na\n\n\nb\n", CorpusFormat("plain", skip_empty=True), stats)
    assert records == [PasswordRecord("a", 1), PasswordRecord("b", 1)]
    assert stats.skipped_empty == 3
    assert stats.lines == 5
    assert stats.records == 2


def test_crlf_stripped_once():
    records = scan(b"pass\r\nword\r\r\n", PLAIN)
    assert records == [PasswordRecord("pass", 1), PasswordRecord("word\r", 1)]


def test_withcount_parsing():
    records = scan(b"  42 hunter2\n1 a b c\n7 \n3  padded\n", WITHCOUNT)
    assert records == [
        PasswordRecord("hunter2", 42),
        PasswordRecord("a b c", 1),
        PasswordRecord("", 7),
        PasswordRecord(" padded", 3),
    ]


@pytest.mark.parametrize(
    "line",
    ["hunter2", "12", "x 12", "-3 neg", "1.5 frac", "", "٣ pw", "１２ pw"],
)
def test_withcount_malformed(line):
    with pytest.raises(CorpusFormatError, match="line 1:"):
        scan(line.encode() + b"\n", WITHCOUNT)


def test_withcount_overlong_count_rejected():
    # Python's int() refuses strings of more than 4,300 digits with a plain
    # ValueError; the grammar rejects long counts before that.
    with pytest.raises(CorpusFormatError, match="more than 18 digits"):
        scan(b"1" * 5000 + b" pw\n", WITHCOUNT)
    assert scan(b"9" * 18 + b" pw\n", WITHCOUNT) == [PasswordRecord("pw", 10**18 - 1)]


def test_withcount_zero_count_rejected():
    with pytest.raises(CorpusFormatError, match="multiplicity must be >= 1"):
        scan(b"0 ghost\n", WITHCOUNT)


def test_withcount_error_carries_line_number():
    with pytest.raises(CorpusFormatError, match="line 3:"):
        scan(b"1 a\n2 b\noops\n", WITHCOUNT)


def test_withcount_empty_line_is_error_unless_skipped():
    with pytest.raises(CorpusFormatError, match="line 2"):
        scan(b"1 a\n\n", WITHCOUNT)
    stats = ReadStats()
    records = scan(b"1 a\n\n", CorpusFormat("withcount", skip_empty=True), stats)
    assert records == [PasswordRecord("a", 1)]
    assert stats.skipped_empty == 1


def test_withcount_skip_empty_also_drops_empty_password():
    records = scan(b"5 \n1 x\n", CorpusFormat("withcount", skip_empty=True))
    assert records == [PasswordRecord("x", 1)]


def test_utf8_and_latin1_fallback():
    records = scan("café\n".encode("utf-8") + b"caf\xe9\n", PLAIN)
    assert records[0].text == "café"
    assert records[1].text == "café"


def test_unknown_format_kind_rejected():
    with pytest.raises(ValueError, match="unknown corpus format kind"):
        CorpusFormat("fancy")


def test_overlong_line_clamped_and_counted():
    stats = ReadStats()
    long = b"x" * (MAX_LINE_BYTES + 5000)
    records = scan(long + b"\nshort\n", PLAIN, stats)
    assert len(records) == 2
    assert len(records[0].text) == MAX_LINE_BYTES
    assert records[1].text == "short"
    assert stats.truncated == 1
    assert stats.lines == 2


def test_overlong_final_line_without_newline():
    stats = ReadStats()
    records = scan(b"y" * (MAX_LINE_BYTES + 1), PLAIN, stats)
    assert len(records) == 1
    assert len(records[0].text) == MAX_LINE_BYTES
    assert stats.truncated == 1


def test_missing_final_newline():
    assert scan(b"a\nb", PLAIN) == [PasswordRecord("a", 1), PasswordRecord("b", 1)]


def test_partition_offsets_cover_file_and_align(tmp_path):
    path = tmp_path / "c.txt"
    lines = [f"password{i}" for i in range(100)]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    for parts in (1, 2, 3, 7, 64, 1000):
        ranges = partition_offsets(str(path), parts)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(data)
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c
            assert a < b
            assert data[b - 1] == ord("\n")


def test_partition_scan_equals_sequential(tmp_path):
    path = tmp_path / "c.txt"
    lines = [f"{i % 9 + 1} pw{i}" for i in range(257)]
    path.write_text("\n".join(lines) + "\n")
    with path.open("rb") as f:
        whole = list(read_records(f, WITHCOUNT))
    with path.open("rb") as f:
        whole_stats = ReadStats()
        whole_hists = scan_stream(f, WITHCOUNT, stats=whole_stats)
    for parts in (2, 5, 16):
        got = []
        got_stats = ReadStats()
        got_hists = None
        for start, end in partition_offsets(str(path), parts):
            with path.open("rb") as f:
                f.seek(start)
                got.extend(read_records(f, WITHCOUNT, limit=end - start))
                f.seek(start)
                part = scan_stream(f, WITHCOUNT, stats=got_stats, limit=end - start)
            if got_hists is None:
                got_hists = part
            else:
                got_hists = {a: merge(got_hists[a], part[a]) for a in got_hists}
        assert got == whole
        assert got_stats == whole_stats
        assert {a: (h.counts, h.total) for a, h in got_hists.items()} == {
            a: (h.counts, h.total) for a, h in whole_hists.items()
        }


def test_partition_offsets_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    assert partition_offsets(str(path), 4) == []
    with pytest.raises(ValueError):
        partition_offsets(str(path), 0)


# One corpus line: any text UTF-8 can encode except line breaks. Surrogate
# code points (category Cs) have no UTF-8 encoding, so no file holds them.
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=40
)


@given(st.lists(LINE_TEXT, max_size=30))
def test_plain_round_trip(lines):
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    records = scan(data, PLAIN)
    assert [r.text for r in records] == lines
    assert all(r.multiplicity == 1 for r in records)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**9),
            LINE_TEXT,
        ),
        max_size=30,
    )
)
def test_withcount_round_trip(pairs):
    data = "".join(f"{n} {text}\n" for n, text in pairs).encode("utf-8")
    records = scan(data, WITHCOUNT)
    assert [(r.multiplicity, r.text) for r in records] == pairs


def test_chunk_boundary_straddling():
    # Lines sized to straddle the 1 MiB internal chunk in every position.
    piece = b"q" * 1023 + b"\n"
    data = piece * 2100
    stats = ReadStats()
    records = scan(data, PLAIN, stats)
    assert stats.lines == 2100
    assert all(r.text == "q" * 1023 for r in records)
