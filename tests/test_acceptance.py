"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line with its timing (shown in the -rA report
sections of a verbose pytest run, or directly with -s).
"""

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pwpolicy.attributes import ATTRIBUTES, AttributeId, extract_all
from pwpolicy.corpus import CorpusFormat, PasswordRecord, read_records
from pwpolicy.histogram import (
    Histogram,
    build_histograms,
    format_multiplier,
    merge,
    multiplier_table,
    rounded_multiplier,
)
from pwpolicy.inference import (
    METHOD_NAIVE,
    METHOD_OUTLIER,
    InferenceConfig,
    infer_policy,
    infer_rule,
)
from pwpolicy.policy import PolicyExpr, complies, filter_corpus, parse_policy
from pwpolicy.synth import CorruptionSpec, GeneratorSpec, corrupt, generate, pad
import refdata

CFG = InferenceConfig()
TOL = Fraction(1, 10**9)


@contextlib.contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL [{time.perf_counter() - t0:.2f}s]")
        raise
    print(f"criterion {number} ({description}): PASS [{time.perf_counter() - t0:.2f}s]")


def stream_table(attr_token, freqs):
    """Parse the frozen distribution through the real ingestion path."""
    data = "\n".join(refdata.withcount_lines(attr_token, freqs)) + "\n"
    attr = AttributeId.from_token(attr_token)
    hists = build_histograms(
        read_records(io.BytesIO(data.encode()), CorpusFormat("withcount")), (attr,)
    )
    return multiplier_table(hists[attr])


def assert_exact_multipliers(table, freqs):
    oracle = refdata.exact_multipliers(freqs)
    for row in table.rows[:-1]:
        assert abs(Fraction(row.multiplier) - oracle[row.value]) < TOL
    assert table.rows[-1].multiplier is None


def test_criterion_1_length_boundary():
    with criterion(1, "length outlier table"):
        t0 = time.perf_counter()
        table = stream_table("length", refdata.LENGTH_FREQS)
        cums = {row.value: row.cumulative for row in table.rows}
        assert cums[5] == 6388
        assert cums[6] == 876597
        mults = {row.value: format_multiplier(row.multiplier) for row in table.rows[:-1]}
        assert mults[5] == "137.23"
        assert mults[1] == "6.03"
        assert_exact_multipliers(table, refdata.LENGTH_FREQS)
        rule = infer_rule(table, CFG)
        assert rule.attribute is AttributeId.LENGTH
        assert rule.minimum == 6
        assert rule.method == METHOD_OUTLIER
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_unconstrained_uppercase():
    with criterion(2, "flat uppercase table"):
        t0 = time.perf_counter()
        table = stream_table("uppers", refdata.UPPERS_FREQS)
        for row in table.rows[:-1]:
            assert rounded_multiplier(row.multiplier) <= 1.08
        assert format_multiplier(table.rows[0].multiplier) == "1.08"
        assert_exact_multipliers(table, refdata.UPPERS_FREQS)
        assert infer_rule(table, CFG) is None
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_words_and_classes_boundaries():
    with criterion(3, "word/class boundary tables"):
        t0 = time.perf_counter()
        words = stream_table("words", refdata.WORDS_FREQS)
        assert format_multiplier(words.rows[1].multiplier) == "39.39"
        assert_exact_multipliers(words, refdata.WORDS_FREQS)
        words_rule = infer_rule(words, CFG)
        assert (words_rule.attribute, words_rule.minimum) == (AttributeId.WORDS, 2)
        assert words_rule.method == METHOD_OUTLIER

        classes = stream_table("classes", refdata.CLASSES_FREQS)
        assert format_multiplier(classes.rows[0].multiplier) == "84.87"
        assert_exact_multipliers(classes, refdata.CLASSES_FREQS)
        classes_rule = infer_rule(classes, CFG)
        assert (classes_rule.attribute, classes_rule.minimum) == (AttributeId.CLASSES, 2)
        assert classes_rule.method == METHOD_OUTLIER
        assert time.perf_counter() - t0 < 1.0


GRID_POLICIES = (
    "basic5",
    "basic6",
    "basic8",
    "2class8",
    "2word12",
    "length>=6,digits>=1",
)
GRID_NOISES = (0.0, 0.005, 0.02, 0.03)


@pytest.mark.slow
def test_criterion_4_recovery_grid():
    with criterion(4, "24-cell 1M recovery grid"):
        # The grid runs entirely in this process, so its budget is this
        # process's CPU time: wall time would also count time spent waiting
        # for a CPU while other work holds the machine.
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        seed = 20260814
        failures = []
        for spec_text in GRID_POLICIES:
            expr = parse_policy(spec_text)
            truth = expr.minima()
            for noise in GRID_NOISES:
                seed += 1
                gen = generate(GeneratorSpec(expr, 1_000_000, noise, seed))
                policy = infer_policy(build_histograms(gen))
                got = policy.minima()
                if got != truth:
                    failures.append((spec_text, noise, got))
                    continue
                if noise == 0.0:
                    methods = {r.method for r in policy.rules}
                    if methods != {METHOD_NAIVE}:
                        failures.append((spec_text, noise, f"methods {methods}"))
        cpu = time.process_time() - cpu0
        elapsed = time.perf_counter() - t0
        assert not failures, failures
        assert cpu < 300.0, f"grid took {cpu:.1f}s CPU ({elapsed:.1f}s wall)"


@pytest.mark.slow
def test_criterion_5_pad_and_corrupt_scenarios():
    with criterion(5, "padded and corrupted corpora"):
        base_expr = parse_policy("2word12")
        base = generate(GeneratorSpec(base_expr, 1_000_000, 0.0, seed=11))
        pads = []
        for i, size in enumerate((10_000, 4_000, 3_000, 2_500)):
            organic = generate(GeneratorSpec(PolicyExpr(()), size, 0.0, seed=100 + i))
            pads.append([r for r in organic if not complies(r.text, base_expr)])
        pad_total = sum(len(p) for p in pads)
        assert pad_total / (1_000_000 + pad_total) <= 0.02
        policy = infer_policy(build_histograms(pad(base, pads)))
        assert policy.minima() == {AttributeId.LENGTH: 12, AttributeId.WORDS: 2}
        assert policy.name == "2word12"

        inj = random.Random(999)

        def injected(records):
            # 1% of records get one separator spliced in somewhere.
            for rec in records:
                if inj.random() < 0.01:
                    text = rec.text
                    pos = inj.randint(0, len(text))
                    tok = " " if inj.random() < 0.5 else ","
                    yield PasswordRecord(text[:pos] + tok + text[pos:], rec.multiplicity)
                else:
                    yield rec

        clean = generate(GeneratorSpec(parse_policy("2class8"), 1_000_000, 0.0, seed=21))
        stream = corrupt(injected(clean), CorruptionSpec(tokens=" ,", probability=1.0), seed=5)
        policy = infer_policy(build_histograms(stream))
        assert stream.added_count > 0
        assert policy.minima() == {AttributeId.LENGTH: 8, AttributeId.CLASSES: 2}
        assert policy.name == "2class8"


def _random_histogram(rng, attr):
    counts = {rng.randrange(0, 9): rng.randrange(1, 60) for _ in range(rng.randrange(1, 6))}
    return Histogram(attr, counts, sum(counts.values()))


def _random_records(rng, max_len=14):
    pool = "abXY01 !,"
    return [
        PasswordRecord(
            "".join(rng.choice(pool) for _ in range(rng.randrange(0, max_len))),
            rng.randrange(1, 5),
        )
        for _ in range(rng.randrange(0, 12))
    ]


def test_criterion_6_property_suites():
    with criterion(6, "six 1000-case property suites"):
        # merge is associative/commutative and partitioning is lossless
        rng = random.Random(601)
        for _ in range(1000):
            attr = ATTRIBUTES[rng.randrange(len(ATTRIBUTES))]
            a, b, c = (_random_histogram(rng, attr) for _ in range(3))
            ab_c = merge(merge(a, b), c)
            a_bc = merge(a, merge(b, c))
            assert ab_c.counts == a_bc.counts and ab_c.total == a_bc.total
            ab, ba = merge(a, b), merge(b, a)
            assert ab.counts == ba.counts and ab.total == ba.total

            records = _random_records(rng)
            cut1 = rng.randrange(0, len(records) + 1)
            cut2 = rng.randrange(cut1, len(records) + 1)
            parts = [records[:cut1], records[cut1:cut2], records[cut2:]]
            whole = build_histograms(records)
            merged = {attr2: Histogram(attr2, {}, 0) for attr2 in ATTRIBUTES}
            for part in parts:
                partial = build_histograms(part)
                merged = {attr2: merge(merged[attr2], partial[attr2]) for attr2 in ATTRIBUTES}
            for attr2 in ATTRIBUTES:
                assert merged[attr2].counts == whole[attr2].counts
                assert merged[attr2].total == whole[attr2].total

        # multiplier tables and inferred rules are scale invariant, exactly
        rng = random.Random(602)
        for _ in range(1000):
            attr = ATTRIBUTES[rng.randrange(len(ATTRIBUTES))]
            hist = _random_histogram(rng, attr)
            factor = rng.randrange(2, 1000)
            base_table = multiplier_table(hist)
            scaled_table = multiplier_table(hist.scaled(factor))
            assert [r.multiplier for r in base_table.rows] == [
                r.multiplier for r in scaled_table.rows
            ]
            # Support scales too, so compare rules under a support-free config.
            cfg = InferenceConfig(min_support=1)
            assert infer_rule(base_table, cfg) == infer_rule(scaled_table, cfg)

        # the four class counts partition every password's length
        rng = random.Random(603)
        alphabet = "aqzXQZ0579 _!@,éÜ中\U0001f600"
        for _ in range(1000):
            text = "".join(
                alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randrange(0, 40))
            )
            length, _, lowers, uppers, digits, symbols, classes = extract_all(text)
            assert lowers + uppers + digits + symbols == length == len(text)
            assert classes == sum(1 for n in (lowers, uppers, digits, symbols) if n)

        # filtering partitions a corpus: every record in exactly one sink
        rng = random.Random(604)
        for _ in range(1000):
            records = _random_records(rng)
            n_constraints = rng.randrange(0, 3)
            attrs = rng.sample(ATTRIBUTES, n_constraints)
            expr = PolicyExpr(tuple((a, rng.randrange(0, 4)) for a in attrs))
            kept, dropped = [], []
            summary = filter_corpus(records, expr, kept.append, dropped.append)
            assert len(kept) + len(dropped) == len(records)
            assert summary.total == sum(r.multiplicity for r in records)
            assert summary.compliant == sum(r.multiplicity for r in kept)
            for rec in kept:
                assert complies(rec.text, expr)
            for rec in dropped:
                assert not complies(rec.text, expr)

        # corrupt's added_count equals sum(pieces - 1) over split records
        rng = random.Random(605)
        for _ in range(1000):
            records = _random_records(rng)
            tokens = (" ,", " ", ",", " ,!")[rng.randrange(4)]
            keep_empty = rng.random() < 0.5
            spec = CorruptionSpec(tokens=tokens, probability=1.0, keep_empty_pieces=keep_empty)
            stream = corrupt(list(records), spec, seed=rng.randrange(1000))
            out = list(stream)
            splitter = re.compile("[%s]" % re.escape(tokens))
            expected = 0
            for rec in records:
                if splitter.search(rec.text) is None:
                    continue
                pieces = splitter.split(rec.text)
                if not keep_empty:
                    pieces = [p for p in pieces if p]
                expected += len(pieces) - 1
            assert stream.added_count == expected == len(out) - len(records)

        # generation is deterministic per spec
        rng = random.Random(607)
        pool = ("basic6", "basic8", "2word12", "2class8", "3class12", "length>=6,digits>=1")
        for _ in range(1000):
            expr = parse_policy(pool[rng.randrange(len(pool))])
            spec = GeneratorSpec(
                expr,
                rng.randrange(0, 40),
                rng.choice((0.0, 0.01, 0.05, 0.2)),
                seed=rng.randrange(10_000),
            )
            assert list(generate(spec)) == list(generate(spec))


@pytest.mark.slow
def test_criterion_7_ten_million_line_scan(tmp_path):
    with criterion(7, "10M-line infer under 60s/256MiB"):
        corpus = tmp_path / "organic10m.txt"
        spec = GeneratorSpec(PolicyExpr(()), 10_000_000, 0.0, seed=77)
        with corpus.open("w", encoding="utf-8") as f:
            write = f.write
            for rec in generate(spec):
                write(rec.text + "\n")

        def run_infer(threads):
            argv = [
                sys.executable,
                "-m",
                "pwpolicy.cli",
                "infer",
                str(corpus),
                "--threads",
                str(threads),
                "--format",
                "json",
            ]
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            out = proc.stdout.read()
            err = proc.stderr.read()
            proc.stdout.close()
            proc.stderr.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0, err.decode()
            return out, elapsed, usage.ru_maxrss

        out1, elapsed1, maxrss_kib = run_infer(1)
        assert elapsed1 < 60.0, f"sequential infer took {elapsed1:.1f}s"
        assert maxrss_kib < 256 * 1024, f"peak RSS {maxrss_kib / 1024:.0f} MiB"
        out8, _, _ = run_infer(8)
        assert out1 == out8
