import io
import random

import pytest

from pwpolicy import corpus
from pwpolicy.attributes import AttributeId
from pwpolicy.corpus import CorpusFormat, CorpusFormatError, PasswordRecord, ReadStats, read_records
from pwpolicy.policy import (
    FilterSummary,
    PolicyExpr,
    PolicyParseError,
    complies,
    filter_corpus,
    filter_stream,
    parse_policy,
    policy_minima,
    render_policy,
)

L = AttributeId.LENGTH
W = AttributeId.WORDS
C = AttributeId.CLASSES
D = AttributeId.DIGITS


def test_parse_named_forms():
    assert parse_policy("basic8").minima() == {L: 8}
    assert parse_policy("2word12").minima() == {L: 12, W: 2}
    assert parse_policy("3class16").minima() == {L: 16, C: 3}
    assert parse_policy(" basic10 ").minima() == {L: 10}


def test_parse_term_list():
    expr = parse_policy("length>=6,digits>=1")
    assert expr.minima() == {L: 6, D: 1}
    expr = parse_policy("  digits >= 2 ,  length>=10")
    assert expr.minima() == {L: 10, D: 2}


def test_parse_zero_minimum_allowed():
    assert parse_policy("digits>=0").minima() == {D: 0}


def test_parse_errors_carry_position():
    with pytest.raises(PolicyParseError, match="empty policy spec"):
        parse_policy("   ")
    with pytest.raises(PolicyParseError, match="position 0"):
        parse_policy("length=6")
    err = None
    try:
        parse_policy("length>=6,numerals>=1")
    except PolicyParseError as exc:
        err = exc
    assert err is not None
    assert err.position == 10
    assert "numerals" in str(err)
    with pytest.raises(PolicyParseError, match="duplicate"):
        parse_policy("length>=6,length>=8")
    with pytest.raises(PolicyParseError):
        parse_policy("length>=six")


def test_named_form_is_not_a_term():
    # "basic" with no digits is neither a name nor a term list.
    with pytest.raises(PolicyParseError):
        parse_policy("basic")


def test_constraints_canonically_ordered():
    a = PolicyExpr(((W, 2), (L, 12)))
    b = PolicyExpr(((L, 12), (W, 2)))
    assert a == b
    assert a.constraints == ((L, 12), (W, 2))  # sorted by token


def test_duplicate_constraint_rejected():
    with pytest.raises(ValueError, match="duplicate constraint"):
        PolicyExpr(((L, 6), (L, 8)))


def test_render_parse_round_trip():
    for spec in ("basic8", "2word12", "4class16", "length>=6,digits>=1", "symbols>=2"):
        expr = parse_policy(spec)
        assert parse_policy(render_policy(expr)) == expr
    assert render_policy(parse_policy("2word12")) == "length>=12,words>=2"
    assert render_policy(PolicyExpr(())) == ""


def test_complies():
    expr = parse_policy("length>=6,digits>=1")
    assert complies("abcde1", expr)
    assert not complies("abcdef", expr)  # no digit
    assert not complies("abc1", expr)  # too short
    assert complies("anything", PolicyExpr(()))
    two_word = parse_policy("2word12")
    assert complies("correct horse", two_word)
    assert not complies("correcthorse", two_word)
    assert not complies("ab cd", two_word)


def test_filter_corpus_partitions_by_multiplicity():
    expr = parse_policy("basic4")
    records = [
        PasswordRecord("okay!", 5),
        PasswordRecord("no", 3),
        PasswordRecord("fine", 1),
        PasswordRecord("x", 2),
    ]
    kept, dropped = [], []
    summary = filter_corpus(records, expr, kept.append, dropped.append)
    assert summary.compliant == 6
    assert summary.rejected == 5
    assert summary.total == 11
    assert [r.text for r in kept] == ["okay!", "fine"]
    assert [r.text for r in dropped] == ["no", "x"]
    for record in records:
        assert (record in kept) == complies(record.text, expr)
        assert (record in kept) != (record in dropped)


def test_filter_corpus_without_sinks_only_counts():
    summary = filter_corpus([PasswordRecord("abc", 7)], parse_policy("basic2"))
    assert (summary.compliant, summary.rejected) == (7, 0)


def test_filter_summary_json_rounding():
    s = FilterSummary(compliant=81103, rejected=196)
    assert s.to_json() == {"compliant": 81103, "rejected": 196, "rejected_pct": 0.24}
    assert FilterSummary().to_json()["rejected_pct"] == 0.0


def test_policy_minima_round_trip():
    expr = parse_policy("length>=8,classes>=2")
    assert policy_minima(expr.minima()) == expr


# --- filter_stream against filter_corpus(read_records(...)) ----------------


def _dirty_lines(seed: int, withcount: bool, skip_empty: bool, max_line: int) -> list[bytes]:
    """Input lines, each with its own terminator: Latin-1, UTF-8, CRLF,
    padded counts, lines around the clamp, and empty lines or passwords."""
    rng = random.Random(seed)
    bodies = [
        lambda: b"pw%d" % rng.randrange(1000),
        lambda: b"Hunter%d!" % rng.randrange(100),
        lambda: b"two words 42",
        lambda: "café".encode("utf-8") + b"%d" % rng.randrange(10**6),
        lambda: b"caf\xe9%d" % rng.randrange(10**6),  # invalid UTF-8: Latin-1
        lambda: "пароль123".encode("utf-8"),
        lambda: "ñññ%d".encode("utf-8") % rng.randrange(10),  # 4 code points, 7 bytes
        lambda: b"x1" * rng.randrange(max_line // 2 - 6, max_line // 2 + 2),
        lambda: b"ab1" * rng.randrange(max_line // 3, max_line),
        lambda: b"",
    ]
    lines = []
    for _ in range(300):
        body = rng.choice(bodies)()
        end = rng.choice((b"\n", b"\n", b"\r\n"))
        if withcount:
            if not body and skip_empty and rng.random() < 0.5:
                lines.append(end)  # an empty line, dropped like an empty password
                continue
            body = rng.choice((b"%d %s", b"%7d %s", b"  %d %s")) % (rng.randrange(1, 10**6), body)
        lines.append(body + end)
    if withcount:
        lines.append("٣ arabic-indic count".encode("utf-8") + b"\r\n")
    else:
        lines.append(b"last1\r\n")
    return lines


def _expected_split(lines, fmt, expr):
    """Each input line after CR strip and clamp, routed by its own record."""
    kept, dropped = [], []
    for line in lines:
        raw = line.rstrip(b"\n")
        raw = raw[: corpus.MAX_LINE_BYTES]
        raw = raw[:-1] if raw.endswith(b"\r") else raw
        records = list(read_records(io.BytesIO(line), fmt))
        if records:
            (kept if complies(records[0].text, expr) else dropped).append(raw + b"\n")
    return b"".join(kept), b"".join(dropped)


@pytest.mark.parametrize("chunk", [97, 4096, 1 << 20])
@pytest.mark.parametrize("kind", ["plain", "withcount"])
@pytest.mark.parametrize("skip_empty", [False, True])
@pytest.mark.parametrize("final_newline", [False, True])
def test_filter_stream_writes_back_line_bytes(monkeypatch, chunk, kind, skip_empty, final_newline):
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(corpus, "MAX_LINE_BYTES", 300)
    fmt = CorpusFormat(kind, skip_empty)
    expr = parse_policy("length>=6,digits>=1")
    lines = _dirty_lines(chunk, kind == "withcount", skip_empty, 300)
    data = b"".join(lines)
    if not final_newline:
        data = data[:-1]
    want_stats = ReadStats()
    want = filter_corpus(read_records(io.BytesIO(data), fmt, want_stats), expr)
    out, reject, stats = io.BytesIO(), io.BytesIO(), ReadStats()
    summary = filter_stream(io.BytesIO(data), fmt, expr, out, reject, stats)
    assert summary == want
    assert stats == want_stats
    assert stats.truncated > 0 and summary.compliant > 0 and summary.rejected > 0
    assert (out.getvalue(), reject.getvalue()) == _expected_split(lines, fmt, expr)
    # None sinks discard but count the same.
    assert filter_stream(io.BytesIO(data), fmt, expr, None, None) == want


@pytest.mark.parametrize(
    "bad", [b"x abc", b"0 abc", b"", b"12abc", b"   ", b"-3 abc", "٠ zero".encode("utf-8")]
)
def test_filter_stream_withcount_error_line_number(monkeypatch, bad):
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 64)
    data = b"".join(b"%7d ok%d\n" % (i + 1, i) for i in range(40)) + bad + b"\n5 after\n"
    fmt = CorpusFormat("withcount")
    with pytest.raises(CorpusFormatError) as want:
        list(read_records(io.BytesIO(data), fmt))
    with pytest.raises(CorpusFormatError) as got:
        filter_stream(io.BytesIO(data), fmt, parse_policy("basic3"), io.BytesIO(), None)
    assert want.value.line_number == got.value.line_number == 41
    assert str(got.value) == str(want.value)
