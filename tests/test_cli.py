import hashlib
import io
import json
import os
import re
from collections import Counter

import pytest

from pwpolicy import corpus
from pwpolicy.cli import build_parser, main
from pwpolicy.corpus import CorpusFormat, read_records
from pwpolicy.policy import filter_corpus, parse_policy
import refdata


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def length_corpus(write_corpus):
    return write_corpus(refdata.withcount_lines("length", refdata.LENGTH_FREQS))


def feed_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


# --- hist ------------------------------------------------------------------


def test_hist_pretty(length_corpus, capsys):
    code, out, _ = run(
        capsys, "hist", length_corpus, "length", "--input-format", "withcount"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["value", "frequency", "cumulative", "multiplier"]
    assert lines[1].split() == ["1", "306", "306", "6.03"]
    assert lines[5].split() == ["5", "2546", "6388", "137.23"]
    assert lines[7].split() == ["7", "1208092", "2084689", "---"]


def test_hist_csv_and_json_agree(length_corpus, capsys):
    code, csv_out, _ = run(
        capsys, "hist", length_corpus, "length", "--input-format", "withcount",
        "--format", "csv",
    )
    assert code == 0
    code, json_out, _ = run(
        capsys, "hist", length_corpus, "length", "--input-format", "withcount",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(json_out)
    assert doc["attribute"] == "length"
    assert doc["total"] == sum(refdata.LENGTH_FREQS.values())
    csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
    assert len(csv_rows) == len(doc["rows"])
    for cells, row in zip(csv_rows, doc["rows"]):
        assert int(cells[0]) == row["value"]
        assert int(cells[1]) == row["frequency"]
        assert int(cells[2]) == row["cumulative"]
        if cells[3] == "":
            assert row["multiplier"] is None
        else:
            assert float(cells[3]) == row["multiplier"]
    # Last row multiplier: empty cell in CSV, null in JSON.
    assert csv_rows[-1][3] == ""
    assert doc["rows"][-1]["multiplier"] is None


def test_hist_single_value_classes(write_corpus, capsys):
    path = write_corpus(["Aa1!"] * 5)
    code, out, _ = run(capsys, "hist", path, "classes")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split() == ["4", "5", "5", "---"]


def test_hist_from_stdin(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"abc\nabcd\nab\n")
    code, out, _ = run(capsys, "hist", "-", "length")
    assert code == 0
    assert "value" in out


def test_hist_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "hist", "/nonexistent/corpus.txt", "length")
    assert code == 2
    assert "error:" in err


def test_hist_unknown_attribute_is_usage_error(length_corpus, capsys):
    code, _, err = run(capsys, "hist", length_corpus, "entropy")
    assert code == 1
    assert "unknown attribute" in err


def test_hist_bad_withcount_line_is_format_error(write_corpus, capsys):
    path = write_corpus(["notacount abc"])
    code, _, err = run(capsys, "hist", path, "length", "--input-format", "withcount")
    assert code == 3
    assert "line 1" in err


def test_hist_overlong_withcount_count_is_format_error(write_corpus, capsys):
    path = write_corpus(["1 a", "1" * 5000 + " pw"])
    code, _, err = run(capsys, "hist", path, "length", "--input-format", "withcount")
    assert code == 3
    assert "line 2" in err and "more than 18 digits" in err


def test_hist_empty_corpus_is_usage_error(write_corpus, capsys):
    path = write_corpus([""])
    code, _, err = run(
        capsys, "hist", path, "length", "--skip-empty"
    )
    assert code == 1
    assert "empty" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "fnord")
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["hist", "--help"]) == 0
    capsys.readouterr()


# --- infer -----------------------------------------------------------------


def test_infer_pretty_and_json(length_corpus, capsys):
    code, out, _ = run(
        capsys, "infer", length_corpus, "--input-format", "withcount",
        "--attributes", "length",
    )
    assert code == 0
    assert "length >= 6" in out
    assert "method=outlier" in out
    assert "mult=137.23" in out
    assert "name: basic6" in out

    code, out, _ = run(
        capsys, "infer", length_corpus, "--input-format", "withcount",
        "--attributes", "length", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["rules"] == [
        {"attribute": "length", "min": 6, "confidence": 137.23, "method": "outlier"}
    ]
    assert doc["name"] == "basic6"
    assert doc["cutoff"] == 2.0
    assert doc["min_support"] == 10
    assert doc["total_records"] == sum(refdata.LENGTH_FREQS.values())


def test_infer_csv(length_corpus, capsys):
    code, out, _ = run(
        capsys, "infer", length_corpus, "--input-format", "withcount",
        "--attributes", "length", "--format", "csv",
    )
    assert out.strip().split("\n") == [
        "attribute,min,confidence,method",
        "length,6,137.23,outlier",
    ]


def test_infer_no_constraints(write_corpus, capsys):
    path = write_corpus(["a", "1", "!", "A", "aa", "a1"])
    code, out, _ = run(capsys, "infer", path)
    assert code == 0
    assert out.strip() == "no constraints inferred"


def test_infer_prunes_implied_class_rule(write_corpus, capsys):
    # Mostly two-word records with enough one-word junk to clear the support
    # threshold: words >= 2 comes out as an outlier rule and the classes >= 2
    # spike it implies is pruned.
    lines = [f"{w}1{w}" for w in ("abcd", "efgh", "ijkl", "mnop")] * 30
    lines += ["abcdefghi"] * 12
    path = write_corpus(lines)
    code, out, _ = run(capsys, "infer", path, "--attributes", "words,classes")
    assert code == 0
    assert "words >= 2" in out
    assert "method=outlier" in out
    assert "classes" not in out


def test_infer_bad_cutoff_is_usage_error(length_corpus, capsys):
    code, _, err = run(
        capsys, "infer", length_corpus, "--input-format", "withcount", "--cutoff", "0.5"
    )
    assert code == 1
    assert "cutoff" in err


def test_infer_duplicate_attributes_flag(length_corpus, capsys):
    code, _, err = run(
        capsys, "infer", length_corpus, "--input-format", "withcount",
        "--attributes", "length,length",
    )
    assert code == 1
    assert "duplicate" in err


# --- filter ------------------------------------------------------------------


def test_filter_splits_and_summarizes(write_corpus, tmp_path, capsys):
    path = write_corpus(["longenough1", "short", "alsolongok2", "no"])
    out_path = tmp_path / "keep.txt"
    rej_path = tmp_path / "rej.txt"
    code, out, _ = run(
        capsys, "filter", path, "basic6",
        "--out", str(out_path), "--reject", str(rej_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary == {"compliant": 2, "rejected": 2, "rejected_pct": 50.0}
    assert out_path.read_text().splitlines() == ["longenough1", "alsolongok2"]
    assert rej_path.read_text().splitlines() == ["short", "no"]


def test_filter_to_stdout_keeps_summary_on_stderr(write_corpus, capsys):
    path = write_corpus(["abcdef", "x"])
    code, out, err = run(capsys, "filter", path, "basic3")
    assert code == 0
    assert out.splitlines() == ["abcdef"]
    assert json.loads(err)["rejected"] == 1


def test_filter_withcount_round_trip(write_corpus, tmp_path, capsys):
    path = write_corpus(["3 abcdef", "2 xy"])
    out_path = tmp_path / "keep.txt"
    code, out, _ = run(
        capsys, "filter", path, "basic4", "--input-format", "withcount",
        "--out", str(out_path),
    )
    assert json.loads(out) == {"compliant": 3, "rejected": 2, "rejected_pct": 40.0}
    assert out_path.read_text() == "3 abcdef\n"
    code2, out2, _ = run(
        capsys, "filter", str(out_path), "basic4", "--input-format", "withcount",
        "--out", str(tmp_path / "again.txt"),
    )
    assert json.loads(out2)["rejected"] == 0


def test_filter_bad_policy_is_parse_error(write_corpus, capsys):
    path = write_corpus(["whatever"])
    code, _, err = run(capsys, "filter", path, "length>>6")
    assert code == 3
    assert "position" in err


def test_filter_then_infer_shows_naive_boundary(tmp_path, capsys):
    # Filtering an organic corpus at a length boundary leaves nothing below
    # it, so inference on the compliant stream reports the boundary through
    # the naive path.
    corpus = tmp_path / "organic.txt"
    code = main(
        ["synth", "generate", "--policy", "length>=1", "--count", "30000",
         "--seed", "2", "--out", str(corpus)]
    )
    assert code == 0
    capsys.readouterr()
    kept = tmp_path / "kept.txt"
    code, _, _ = run(capsys, "filter", str(corpus), "basic6", "--out", str(kept))
    assert code == 0
    code, out, _ = run(capsys, "infer", str(kept), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {"attribute": "length", "min": 6, "confidence": None, "method": "naive"} in doc[
        "rules"
    ]


def test_filter_round_trip_summary_stable(write_corpus, tmp_path, capsys):
    path = write_corpus(["abcdef1", "xy", "pqrstu2", "z", "mnopqr!"])
    out_path, rej_path = tmp_path / "ok.txt", tmp_path / "bad.txt"
    code, first, _ = run(
        capsys, "filter", path, "basic5", "--out", str(out_path), "--reject", str(rej_path)
    )
    assert code == 0
    recombined = tmp_path / "recombined.txt"
    recombined.write_text(out_path.read_text() + rej_path.read_text())
    code, second, _ = run(
        capsys, "filter", str(recombined), "basic5",
        "--out", str(tmp_path / "ok2.txt"), "--reject", str(tmp_path / "bad2.txt"),
    )
    assert code == 0
    assert json.loads(first) == json.loads(second)


def _dirty_corpus(kind: str, skip_empty: bool, final_newline: bool) -> bytes:
    """Latin-1, UTF-8 and CRLF lines, padded counts, lines around the clamp."""
    clamp = corpus.MAX_LINE_BYTES
    bodies = [
        b"caf\xe9123", b"caf\xe9", "café123".encode("utf-8"), "ñññ1".encode("utf-8"), b"plain1234",
        b"short1", b"two words 99", b"", b"x1" * 8,
    ]
    # Whole lines of the clamp's length minus 8, minus 1, exactly, plus 1, plus 200.
    sizes = [None] * len(bodies) + [clamp + d for d in (-8, -1, 0, 1, 200)]
    lines = []
    for i, size in enumerate(sizes * 3):
        prefix = (b"%7d " if i % 2 else b"%d ") % (i + 1) if kind == "withcount" else b""
        body = bodies[i % len(sizes)] if size is None else b"y" * (size - len(prefix))
        lines.append(prefix + body + (b"\r\n" if i % 3 == 0 else b"\n"))
    if skip_empty or kind == "plain":
        lines[5:5] = [b"\n", b"\r\n"]
    lines.append(b"      2 last9\r\n" if kind == "withcount" else b"last9\r\n")
    data = b"".join(lines)
    return data if final_newline else data[:-1]


def _split_lines(data: bytes) -> list[bytes]:
    """A file's lines as filter sees them: one CR dropped, clamped first."""
    pieces = data.split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    pieces = [p[: corpus.MAX_LINE_BYTES] for p in pieces]
    return [p[:-1] if p.endswith(b"\r") else p for p in pieces]


@pytest.mark.parametrize("chunk", [4093, 1 << 20])
@pytest.mark.parametrize("kind", ["plain", "withcount"])
@pytest.mark.parametrize("skip_empty", [False, True])
@pytest.mark.parametrize("final_newline", [False, True])
def test_filter_writes_back_the_bytes_it_read(
    monkeypatch, tmp_path, capsys, chunk, kind, skip_empty, final_newline
):
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", chunk)
    data = _dirty_corpus(kind, skip_empty, final_newline)
    path = tmp_path / "dirty.txt"
    path.write_bytes(data)
    out_path, rej_path = tmp_path / "ok.txt", tmp_path / "bad.txt"
    flags = ["--input-format", kind] + (["--skip-empty"] if skip_empty else [])
    code, out, _ = run(
        capsys, "filter", str(path), "length>=6,digits>=1",
        "--out", str(out_path), "--reject", str(rej_path), *flags,
    )
    assert code == 0
    fmt = CorpusFormat(kind, skip_empty)
    with path.open("rb") as f:
        want = filter_corpus(read_records(f, fmt), parse_policy("length>=6,digits>=1"))
    assert json.loads(out) == want.to_json()
    written = out_path.read_bytes() + rej_path.read_bytes()
    assert written.endswith(b"\n")
    lines = _split_lines(data)
    if skip_empty:  # empty passwords go to neither file
        password = (lambda line: line.lstrip(b" ").partition(b" ")[2]) if kind == "withcount" else bytes
        lines = [line for line in lines if password(line)]
    assert Counter(written.split(b"\n")[:-1]) == Counter(lines)
    assert b"caf\xe9123" in out_path.read_bytes()
    assert b"\r" not in written


def test_filter_bad_withcount_line_after_first_chunk(monkeypatch, write_corpus, tmp_path, capsys):
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 64)
    path = write_corpus([f"{i + 1:7d} pw{i}" for i in range(30)] + ["0 zero", "1 after"])
    code, _, err = run(
        capsys, "filter", path, "basic3", "--input-format", "withcount",
        "--out", str(tmp_path / "ok.txt"),
    )
    assert code == 3
    assert "line 31" in err and "multiplicity" in err


def test_filter_stdin_to_stdout(monkeypatch, capsysbinary):
    feed_stdin(monkeypatch, b"caf\xe91234\r\nshort\n\xd1\x84\xd1\x84x12345\nlongenough99")
    code = main(["filter", "-", "length>=6,digits>=1"])
    captured = capsysbinary.readouterr()
    assert code == 0
    assert captured.out == b"caf\xe91234\n\xd1\x84\xd1\x84x12345\nlongenough99\n"
    assert json.loads(captured.err) == {"compliant": 3, "rejected": 1, "rejected_pct": 25.0}


# --- plot ----------------------------------------------------------------


def test_plot_writes_csv_and_svg(length_corpus, tmp_path, capsys):
    out_csv = tmp_path / "len.csv"
    code, _, err = run(
        capsys, "plot", length_corpus, "length", str(out_csv),
        "--input-format", "withcount",
    )
    assert code == 0
    svg_path = tmp_path / "len.svg"
    assert svg_path.exists()
    csv_lines = out_csv.read_text().strip().split("\n")
    assert csv_lines[0] == "value,multiplier"
    body = csv_lines[1:]
    # Final value (7) has no multiplier and is omitted.
    assert [line.split(",")[0] for line in body] == ["1", "2", "3", "4", "5", "6"]
    assert "5,137.23" in body
    svg = svg_path.read_text()
    assert svg.count("<circle") == len(body)
    assert 'stroke-dasharray' in svg
    assert ">length<" in svg
    assert ">mult<" in svg
    assert "cutoff 2.00" in svg
    assert str(out_csv) in err


def test_plot_single_value_histogram(write_corpus, tmp_path, capsys):
    path = write_corpus(["abc", "abc", "abc"])
    out_csv = tmp_path / "flat.csv"
    code, _, _ = run(capsys, "plot", path, "length", str(out_csv))
    assert code == 0
    assert out_csv.read_text() == "value,multiplier\n"
    svg = (tmp_path / "flat.svg").read_text()
    assert "<circle" not in svg
    assert "<svg" in svg


# --- synth -------------------------------------------------------------------


def test_synth_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            capsys, "synth", "generate", "--policy", "2word12", "--count", "500",
            "--noise", "0.02", "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 500 + int(500 * 0.02 / 0.98)


def test_synth_generate_to_stdout(capsys):
    code = main(["synth", "generate", "--policy", "basic6", "--count", "20"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert all(len(line) >= 6 for line in lines)


@pytest.mark.parametrize(
    "policy, noise", sorted(pin for pin in refdata.GOLDEN_GENERATE_MD5 if pin[0])
)
def test_synth_generate_stdout_is_pinned(capsysbinary, policy, noise):
    code = main(["synth", "generate", "--policy", policy, "--count", "5000",
                 "--noise", str(noise), "--seed", "7"])
    assert code == 0
    out = capsysbinary.readouterr().out
    assert hashlib.md5(out).hexdigest() == refdata.GOLDEN_GENERATE_MD5[(policy, noise)]


def test_synth_generate_noise_without_violatable_is_usage_error(capsys):
    code, _, err = run(
        capsys, "synth", "generate", "--policy", "digits>=0", "--count", "5",
        "--noise", "0.5",
    )
    assert code == 1
    assert "violatable" in err


def test_synth_pad_concatenates(write_corpus, capsys):
    base = write_corpus(["aaa", "bbb"])
    pad1 = write_corpus(["ccc"])
    pad2 = write_corpus(["ddd"])
    code, out, _ = run(capsys, "synth", "pad", base, pad1, pad2)
    assert code == 0
    assert out.splitlines() == ["aaa", "bbb", "ccc", "ddd"]


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_synth_pad_writes_back_the_bytes_it_read(tmp_path, capsysbinary, kind):
    prefix = b"      3 " if kind == "withcount" else b""
    base = tmp_path / "base.txt"
    base.write_bytes(prefix + b"caf\xe9\r\n" + prefix + b"abc\r\n")
    extra = tmp_path / "extra.txt"
    extra.write_bytes(prefix + "ñu".encode("utf-8") + b"\n" + prefix + b"x\xff")
    out = tmp_path / "padded.txt"
    code = main(["synth", "pad", str(base), str(extra), "--input-format", kind, "--out", str(out)])
    assert code == 0
    want = [b"caf\xe9", b"abc", "ñu".encode("utf-8"), b"x\xff"]
    assert out.read_bytes() == b"".join(prefix + line + b"\n" for line in want)
    code = main(["synth", "pad", str(base), str(extra), "--input-format", kind])
    assert code == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_synth_corrupt_reports_added_count(write_corpus, capsys):
    path = write_corpus(["pass word", "plain", "a,b c"])
    code, out, err = run(capsys, "synth", "corrupt", path)
    assert code == 0
    assert out.splitlines() == ["pass", "word", "plain", "a", "b", "c"]
    assert json.loads(err) == {"added_count": 3}


def test_synth_corrupt_drop_empty(write_corpus, capsys):
    path = write_corpus([",x,", ",,"])
    code, out, err = run(capsys, "synth", "corrupt", path, "--tokens", ",", "--drop-empty")
    assert code == 0
    # ",x," keeps one piece (net zero), ",," dissolves entirely (net -1).
    assert out.splitlines() == ["x"]
    assert json.loads(err) == {"added_count": -1}


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_synth_corrupt_writes_back_the_bytes_it_read(tmp_path, capsysbinary, kind):
    # Each piece keeps its line's count prefix, padding included. A line
    # that is not UTF-8 (Latin-1 "caf\xe9 1") is never split.
    prefix = b"      3 " if kind == "withcount" else b""
    path = tmp_path / "in.txt"
    lines = [b"caf\xe9 1\r\n", b"a,b\r\n", b"word\r\r\n", b"\xff\n",
             b"y " + b"x" * 70_000 + b"\n", b"last pw"]
    path.write_bytes(b"".join(prefix + line for line in lines))
    out = tmp_path / "split.txt"
    code = main(["synth", "corrupt", str(path), "--input-format", kind, "--out", str(out)])
    assert code == 0
    err = capsysbinary.readouterr().err.decode()
    assert err.splitlines() == [CLAMP_WARNING.format("1 line", "was").rstrip("\n"),
                                '{"added_count": 3}']
    clamped = b"x" * (corpus.MAX_LINE_BYTES - len(prefix) - 2)
    want = [b"caf\xe9 1", b"a", b"b", b"word\r", b"\xff", b"y", clamped, b"last", b"pw"]
    assert out.read_bytes() == b"".join(prefix + piece + b"\n" for piece in want)
    code = main(["synth", "corrupt", str(path), "--input-format", kind])
    assert code == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_synth_corrupt_skip_empty(tmp_path, capsysbinary, kind):
    prefix = b"  2 " if kind == "withcount" else b""
    path = tmp_path / "in.txt"
    # An empty line, and (withcount) an empty password after its count.
    path.write_bytes(b"\n" + prefix + b"a b\n" + prefix + b"\n")
    code = main(["synth", "corrupt", str(path), "--input-format", kind, "--skip-empty"])
    assert code == 0
    assert capsysbinary.readouterr().out == prefix + b"a\n" + prefix + b"b\n"


@pytest.mark.parametrize("kind", ["plain", "withcount"])
def test_synth_corrupt_probability_zero_is_synth_pad(tmp_path, kind):
    prefix = b"   12 " if kind == "withcount" else b""
    path = tmp_path / "in.txt"
    lines = [b"a b,c\r\n", b"caf\xe9 1\n", "ñu ñ".encode("utf-8") + b"\n", b"x\xff"]
    path.write_bytes(b"".join(prefix + line for line in lines))
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    corrupted, padded = tmp_path / "corrupt.txt", tmp_path / "pad.txt"
    flags = ["--input-format", kind]
    assert main(["synth", "corrupt", str(path), "--probability", "0",
                 "--out", str(corrupted), *flags]) == 0
    assert main(["synth", "pad", str(path), str(empty), "--out", str(padded), *flags]) == 0
    assert corrupted.read_bytes() == padded.read_bytes()


def test_synth_corrupt_tokens_match_their_utf8_encoding(tmp_path, capsysbinary):
    path = tmp_path / "in.txt"
    # The last line holds the UTF-8 bytes of "é" but is not UTF-8, so it
    # reads as the Latin-1 "xÃ©yÿ", which holds no "é".
    path.write_bytes("aéb\n".encode("utf-8") + b"a\xe9b\n" + b"x\xc3\xa9y\xff\n")
    code = main(["synth", "corrupt", str(path), "--tokens", "é"])
    assert code == 0
    captured = capsysbinary.readouterr()
    assert captured.out == b"a\nb\na\xe9b\nx\xc3\xa9y\xff\n"
    assert json.loads(captured.err) == {"added_count": 1}


def test_synth_corrupt_bad_probability_is_usage_error(write_corpus, capsys):
    path = write_corpus(["a b"])
    code, _, err = run(capsys, "synth", "corrupt", path, "--probability", "2.0")
    assert code == 1


# --- eval ----------------------------------------------------------------


def test_eval_small_grid_pretty(capsys):
    code, out, _ = run(
        capsys, "eval", "--policy", "basic6", "--policy", "2class8",
        "--noise", "0", "--noise", "0.02", "--count", "20000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "4/4 cells exact"
    assert all(line.startswith("ok ") for line in lines[:-1])
    # Noise-free cells carry naive-method detail, noisy ones outlier.
    assert "length>=6:naive" in lines[0]
    assert "length>=6:outlier" in lines[1]


def test_eval_json_deterministic(capsys):
    args = [
        "eval", "--policy", "basic5", "--noise", "0.03",
        "--count", "5000", "--format", "json", "--seed", "42",
    ]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = json.loads(out1)
    assert rows[0]["exact_match"] is True
    assert rows[0]["ground_truth"] == "length>=5"
    assert rows[0]["inferred"] == "length>=5"
    assert rows[0]["name"] == "basic5"


def test_eval_exit_zero_even_on_mismatch(capsys):
    # A 30-record corpus is far too small for reliable recovery at this
    # noise level; whatever the outcome, the exit code stays 0.
    code, out, _ = run(
        capsys, "eval", "--policy", "4class16", "--noise", "0.2", "--count", "30",
    )
    assert code == 0
    assert "cells exact" in out


def test_eval_bad_noise_is_usage_error(capsys):
    code, _, err = run(
        capsys, "eval", "--policy", "basic6", "--noise", "1.0", "--count", "10"
    )
    assert code == 1
    assert "noise" in err


def test_eval_csv_format(capsys):
    code, out, _ = run(
        capsys, "eval", "--policy", "basic6", "--noise", "0", "--count", "1000",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "policy,noise,count,inferred,name,exact_match,detail"
    assert lines[1].startswith('basic6,0.0,1000,"length>=6",basic6,true')


# --- clamped lines -----------------------------------------------------------

CLAMP_WARNING = "warning: {} longer than 65536 bytes {} clamped\n"


def _clamp_commands(path, tmp_path):
    return {
        "hist": ["hist", path, "length"],
        "infer": ["infer", path],
        "plot": ["plot", path, "length", str(tmp_path / "p.csv")],
        "filter": ["filter", path, "basic3", "--out", str(tmp_path / "ok.txt")],
        "synth pad": ["synth", "pad", path, path, "--out", str(tmp_path / "pad.txt")],
        "synth corrupt": ["synth", "corrupt", path, "--out", str(tmp_path / "corrupt.txt")],
    }


SCAN_COMMANDS = ("hist", "infer", "plot")
COPY_COMMANDS = ("filter", "synth pad", "synth corrupt")


# The copy commands take no --threads: they run once each, on one thread.
@pytest.mark.parametrize(
    "command, threads",
    [(c, t) for c in SCAN_COMMANDS for t in ("1", "2")] + [(c, "1") for c in COPY_COMMANDS],
)
def test_clamped_line_is_reported(tmp_path, capsys, command, threads):
    path = tmp_path / "long.txt"
    path.write_bytes(b"abc\n" + b"x" * 70_000 + b"\nab1\n")
    argv = _clamp_commands(str(path), tmp_path)[command]
    if command in SCAN_COMMANDS:
        argv += ["--threads", threads]
    code, _, err = run(capsys, *argv)
    assert code == 0
    # synth pad reads its file twice, as base and as padding.
    want = ("2 lines", "were") if command == "synth pad" else ("1 line", "was")
    assert CLAMP_WARNING.format(*want) in err
    assert err.count("warning") == 1


@pytest.mark.parametrize("command", ["hist", "infer"])
def test_clamped_lines_counted_across_partitions(tmp_path, capsys, command):
    path = tmp_path / "long.txt"
    with path.open("wb") as f:
        for i in range(64):
            f.write(b"pw%d\n" % i + b"y" * 70_000 + b"\n")
    assert path.stat().st_size > (1 << 22)  # big enough to partition
    argv = _clamp_commands(str(path), tmp_path)[command]
    for threads in ("1", "2"):
        code, _, err = run(capsys, *argv, "--threads", threads)
        assert code == 0
        assert err == CLAMP_WARNING.format("64 lines", "were")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["hist", "infer"])
def test_clean_corpus_leaves_stderr_empty(tmp_path, capsys, command, threads):
    path = tmp_path / "clean.txt"
    path.write_bytes(b"abc\r\n" + b"z" * 65_536 + b"\ncaf\xe9\n\n")
    argv = _clamp_commands(str(path), tmp_path)[command]
    code, _, err = run(capsys, *argv, "--threads", threads)
    assert code == 0
    assert err == ""


# --- threads ---------------------------------------------------------------


@pytest.mark.parametrize("command", COPY_COMMANDS)
def test_copy_commands_reject_threads(tmp_path, capsys, command):
    path = tmp_path / "in.txt"
    path.write_bytes(b"abc\n")
    argv = _clamp_commands(str(path), tmp_path)[command]
    code, out, err = run(capsys, *argv, "--threads", "2")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --threads 2\n"


def test_threads_do_not_change_results(tmp_path, capsys):
    corpus = tmp_path / "gen.txt"
    code = main(
        ["synth", "generate", "--policy", "2word12", "--count", "350000",
         "--noise", "0.02", "--seed", "3", "--out", str(corpus)]
    )
    assert code == 0
    capsys.readouterr()
    assert corpus.stat().st_size > (1 << 22)  # big enough to partition

    code, out1, _ = run(capsys, "infer", str(corpus), "--threads", "1", "--format", "json")
    assert code == 0
    code, out8, _ = run(capsys, "infer", str(corpus), "--threads", "8", "--format", "json")
    assert code == 0
    assert out1 == out8
    doc = json.loads(out1)
    assert doc["name"] == "2word12"


def test_threads_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parser = build_parser()
    commands = (["infer", "c.txt"], ["hist", "c.txt", "length"], ["plot", "c.txt", "length", "o.csv"])
    for argv in commands:
        assert parser.parse_args(argv).threads == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert build_parser().parse_args(["infer", "c.txt"]).threads == 3
