import hashlib
import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import refdata
import synth_laws
from pwpolicy.attributes import AttributeId, extract
from pwpolicy.corpus import PasswordRecord
from pwpolicy.histogram import build_histograms
from pwpolicy.policy import PolicyExpr, complies, parse_policy
from pwpolicy.synth import (
    _POOLS,
    _TAIL_TABLES,
    CorruptionSpec,
    GeneratorSpec,
    _CharBuffer,
    _Sampler,
    corrupt,
    generate,
    pad,
)


def R(text, mult=1):
    return PasswordRecord(text, mult)


def test_pad_chains_in_order():
    base = [R("a"), R("b")]
    pads = [[R("c")], [R("d"), R("e")]]
    assert list(pad(base, pads)) == [R("a"), R("b"), R("c"), R("d"), R("e")]
    assert list(pad(base, [])) == base
    # Works on generators too and stays lazy.
    lazy = pad((R(str(i)) for i in range(2)), [(R("x") for _ in range(1))])
    assert [r.text for r in lazy] == ["0", "1", "x"]


def test_corruption_spec_validation():
    with pytest.raises(ValueError, match="tokens"):
        CorruptionSpec(tokens="")
    with pytest.raises(ValueError, match="probability"):
        CorruptionSpec(probability=1.5)
    spec = CorruptionSpec()
    assert spec.tokens == " ,"
    assert spec.probability == 1.0
    assert spec.keep_empty_pieces


def test_corrupt_splits_on_every_token():
    stream = corrupt([R("pass word", 4), R("nosplit", 2)], CorruptionSpec())
    out = list(stream)
    assert out == [R("pass", 4), R("word", 4), R("nosplit", 2)]
    assert stream.added_count == 1


def test_corrupt_keeps_empty_pieces_by_default():
    stream = corrupt([R("a,,b", 1)], CorruptionSpec(tokens=","))
    assert [r.text for r in stream] == ["a", "", "b"]
    assert stream.added_count == 2


def test_corrupt_drop_empty_pieces():
    spec = CorruptionSpec(tokens=",", keep_empty_pieces=False)
    stream = corrupt([R("a,,b", 1)], spec)
    assert [r.text for r in stream] == ["a", "b"]
    assert stream.added_count == 1
    # A record made only of tokens dissolves; added_count goes negative.
    stream = corrupt([R(",,", 1)], spec)
    assert list(stream) == []
    assert stream.added_count == -1


def test_corrupt_mixed_tokens_adjacent():
    stream = corrupt([R("a ,b", 1)], CorruptionSpec(tokens=" ,"))
    assert [r.text for r in stream] == ["a", "", "b"]
    assert stream.added_count == 2


def test_corrupt_probability_zero_never_splits():
    records = [R(f"{i} with spaces") for i in range(50)]
    stream = corrupt(records, CorruptionSpec(probability=0.0))
    assert list(stream) == records
    assert stream.added_count == 0


def test_corrupt_probability_draws_only_for_token_bearing_records():
    # Interleaving token-free records must not shift the split decisions.
    spec = CorruptionSpec(probability=0.5)
    splittable = [R(f"pw {i}") for i in range(40)]
    plain = [R(f"pw{i}") for i in range(40)]
    baseline = [r for r in corrupt(list(splittable), spec, seed=9) if " " not in r.text]
    interleaved = itertools.chain.from_iterable(zip(plain, splittable))
    plain_texts = {r.text for r in plain}
    got = [
        r
        for r in corrupt(interleaved, spec, seed=9)
        if " " not in r.text and r.text not in plain_texts
    ]
    # Same records ended up split either way.
    assert [r.text for r in got] == [r.text for r in baseline]


def test_corrupt_deterministic_per_seed():
    records = [R(f"word {i} x") for i in range(30)]
    a = list(corrupt(list(records), CorruptionSpec(probability=0.4), seed=3))
    b = list(corrupt(list(records), CorruptionSpec(probability=0.4), seed=3))
    c = list(corrupt(list(records), CorruptionSpec(probability=0.4), seed=4))
    assert a == b
    assert a != c


def test_corrupt_added_count_matches_piece_arithmetic():
    spec = CorruptionSpec(tokens=" ,", probability=1.0)
    records = [R("a b c", 2), R("x", 1), R(",y", 3), R("no-token", 9)]
    stream = corrupt(records, spec)
    out = list(stream)
    expected_added = sum(
        len(re.split("[ ,]", r.text)) - 1 for r in records if re.search("[ ,]", r.text)
    )
    assert stream.added_count == expected_added == len(out) - len(records)


def _corrupt_reference(records, spec, seed):
    """corrupt() as a text regex over each record's text: (records, added_count)."""
    rng = random.Random(seed)
    splitter = re.compile("[%s]" % re.escape(spec.tokens))
    out, added = [], 0
    for record in records:
        if splitter.search(record.text) is None or rng.random() >= spec.probability:
            out.append(record)
            continue
        pieces = splitter.split(record.text)
        if not spec.keep_empty_pieces:
            pieces = [p for p in pieces if p]
        added += len(pieces) - 1
        out.extend(R(piece, record.multiplicity) for piece in pieces)
    return out, added


# Separators, a two-byte and an astral character, and a lone surrogate, so
# tokens and texts share multi-byte characters.
_CORRUPT_CHARS = st.sampled_from(" ,;ab\u00e9\u00c3\U0001f600\ud800") | st.characters()


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(
        st.tuples(st.text(_CORRUPT_CHARS, max_size=12), st.integers(1, 5)), max_size=8
    ),
    tokens=st.text(_CORRUPT_CHARS, min_size=1, max_size=3),
    probability=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    keep_empty=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_corrupt_matches_text_regex_reference(texts, tokens, probability, keep_empty, seed):
    records = [R(text, mult) for text, mult in texts]
    spec = CorruptionSpec(tokens, probability, keep_empty)
    stream = corrupt(records, spec, seed)
    want, added = _corrupt_reference(records, spec, seed)
    assert list(stream) == want
    assert stream.added_count == added


def test_generator_spec_validation():
    expr = parse_policy("basic8")
    with pytest.raises(ValueError, match="compliant_count"):
        GeneratorSpec(expr, -1)
    with pytest.raises(ValueError, match="noise_fraction"):
        GeneratorSpec(expr, 10, noise_fraction=1.0)
    with pytest.raises(ValueError, match="noise_fraction"):
        GeneratorSpec(expr, 10, noise_fraction=-0.1)


def test_noise_count_formula():
    expr = parse_policy("basic8")
    assert GeneratorSpec(expr, 10_000, 0.02).noise_count == 204
    assert GeneratorSpec(expr, 10_000, 0.0).noise_count == 0
    assert GeneratorSpec(expr, 1_000_000, 0.03).noise_count == 30927
    spec = GeneratorSpec(expr, 9700, 0.03)
    total = spec.compliant_count + spec.noise_count
    assert abs(spec.noise_count / total - 0.03) < 0.001


def test_generate_counts_and_compliance():
    for spec_text in ("basic6", "2word12", "2class8", "length>=6,digits>=1"):
        expr = parse_policy(spec_text)
        spec = GeneratorSpec(expr, 3000, noise_fraction=0.03, seed=5)
        records = list(generate(spec))
        assert len(records) == spec.compliant_count + spec.noise_count
        assert all(r.multiplicity == 1 for r in records)
        ok = sum(1 for r in records if complies(r.text, expr))
        assert ok == spec.compliant_count
        assert len(records) - ok == spec.noise_count


def test_generate_noise_free_is_fully_compliant():
    expr = parse_policy("3class12")
    records = list(generate(GeneratorSpec(expr, 2000, seed=1)))
    assert len(records) == 2000
    assert all(complies(r.text, expr) for r in records)


def test_generate_unconstrained_corpus():
    records = list(generate(GeneratorSpec(PolicyExpr(()), 500, seed=2)))
    assert len(records) == 500
    assert all(r.text for r in records)  # organic draws are nonempty


def test_generate_noise_needs_violatable_constraint():
    with pytest.raises(ValueError, match="no violatable constraint"):
        list(generate(GeneratorSpec(PolicyExpr(()), 10, noise_fraction=0.1)))
    # digits>=0 is a constraint nothing can violate.
    with pytest.raises(ValueError, match="no violatable constraint"):
        list(generate(GeneratorSpec(parse_policy("digits>=0"), 10, noise_fraction=0.1)))


def test_generate_rejects_wide_class_minimum():
    with pytest.raises(ValueError, match="classes minimum"):
        list(generate(GeneratorSpec(parse_policy("classes>=5"), 10)))


def test_generate_deterministic_and_seed_sensitive():
    expr = parse_policy("2word12")
    spec = GeneratorSpec(expr, 400, noise_fraction=0.02, seed=7)
    a = list(generate(spec))
    b = list(generate(spec))
    assert a == b
    c = list(generate(GeneratorSpec(expr, 400, noise_fraction=0.02, seed=8)))
    assert a != c


def test_generate_interleaves_noise():
    expr = parse_policy("basic8")
    spec = GeneratorSpec(expr, 5000, noise_fraction=0.03, seed=3)
    records = list(generate(spec))
    flags = [complies(r.text, expr) for r in records]
    head_noise = flags[:1000].count(False)
    tail_noise = flags[-1000:].count(False)
    assert head_noise > 0 and tail_noise > 0


def test_violators_cover_every_constraint():
    # Each violator misses at least one constraint; different draws miss
    # different ones so every constraint gets exercised.
    expr = parse_policy("length>=10,digits>=2,words>=2")
    spec = GeneratorSpec(expr, 2000, noise_fraction=0.3, seed=13)
    records = list(generate(spec))
    violated = {"length": 0, "digits": 0, "words": 0}
    for r in records:
        if complies(r.text, expr):
            continue
        if len(r.text) < 10:
            violated["length"] += 1
        if extract(AttributeId.DIGITS, r.text) < 2:
            violated["digits"] += 1
        if extract(AttributeId.WORDS, r.text) < 2:
            violated["words"] += 1
    assert all(v > 0 for v in violated.values())


def test_generated_text_is_printable_single_line():
    for spec_text in ("basic6", "2word12"):
        expr = parse_policy(spec_text)
        for r in generate(GeneratorSpec(expr, 500, noise_fraction=0.05, seed=4)):
            assert "\n" not in r.text and "\r" not in r.text
            assert r.text.isprintable() or r.text == ""


@pytest.mark.parametrize("policy, noise", sorted(refdata.GOLDEN_GENERATE_MD5))
def test_generate_output_is_pinned_per_seed(policy, noise):
    expr = parse_policy(policy) if policy else PolicyExpr(())
    data = "".join(r.text + "\n" for r in generate(GeneratorSpec(expr, 5000, noise, 7)))
    want = refdata.GOLDEN_GENERATE_MD5[(policy, noise)]
    assert hashlib.md5(data.encode("utf-8")).hexdigest() == want


# --- laws of the generator ---------------------------------------------------
# Fixed bounds, set before any sample was compared: a chi-square p-value under
# 1e-4, or a two-proportion |z| of 4 or more (p ~ 6e-5), fails.
MIN_P = 1e-4
MAX_Z = 4.0


def _chi2_sf(x, df):
    """P(X >= x) for a chi-square variable with df degrees of freedom."""
    if df % 2 == 0:
        term = total = math.exp(-x / 2)
        for k in range(1, df // 2):
            term *= x / (2 * k)
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def test_chi2_sf_known_values():
    assert _chi2_sf(0.0, 1) == pytest.approx(1.0)
    assert _chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert _chi2_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-6)
    assert _chi2_sf(11.070498, 5) == pytest.approx(0.05, abs=1e-6)
    assert _chi2_sf(37.652484, 25) == pytest.approx(0.05, abs=1e-6)


def _two_sample_p(a, b, min_bin=20):
    """p-value that two histograms (value -> count) share one law.

    Values are pooled in ascending order into bins holding at least min_bin
    records of the two samples together, so no bin is too thin for the
    chi-square approximation.
    """
    bins, cur = [], [0, 0]
    for v in sorted(set(a) | set(b)):
        cur[0] += a.get(v, 0)
        cur[1] += b.get(v, 0)
        if cur[0] + cur[1] >= min_bin:
            bins.append(cur)
            cur = [0, 0]
    if bins:
        bins[-1][0] += cur[0]
        bins[-1][1] += cur[1]
    if len(bins) < 2:
        return 1.0
    na, nb = sum(x for x, _ in bins), sum(y for _, y in bins)
    ka, kb = math.sqrt(nb / na), math.sqrt(na / nb)
    stat = sum((x * ka - y * kb) ** 2 / (x + y) for x, y in bins)
    return _chi2_sf(stat, len(bins) - 1)


def _z(k1, n1, k2, n2):
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return (k1 / n1 - k2 / n2) / se if se else 0.0


def test_two_sample_test_separates_laws():
    rng = random.Random(3)
    same_a = Counter(min(int(rng.expovariate(0.3)), 30) for _ in range(50_000))
    same_b = Counter(min(int(rng.expovariate(0.3)), 30) for _ in range(50_000))
    other = Counter(min(int(rng.expovariate(0.28)), 30) for _ in range(50_000))
    assert _two_sample_p(same_a, same_b) >= MIN_P
    assert _two_sample_p(same_a, other) < MIN_P


def _reference_draws(seed, pool, sizes):
    """What _CharBuffer.take must return, written as plain Python loops."""
    rng = random.Random(seed)
    n = len(pool)
    keep = 256 - 256 % n
    buf, out = "", []
    for k in sizes:
        if len(buf) < k:
            need = k - len(buf)
            fresh = ""
            while len(fresh) < need:
                raw = rng.randbytes(max(_CharBuffer._BATCH, need))
                fresh += "".join(pool[b % n] for b in raw if b < keep)
            buf += fresh
        out.append(buf[:k])
        buf = buf[k:]
    return out


@pytest.mark.parametrize("pool", _POOLS)
def test_char_buffer_draws(pool):
    # Small takes that cross many refills, a take far larger than _BATCH,
    # then small takes again: at least 100k characters in all.
    sizes = [1, 5, 13, 40, 0, 7] * 3000 + [2 * _CharBuffer._BATCH + 7] + [3, 29] * 500
    buf = _CharBuffer(random.Random(21), pool)
    got = [buf.take(k) for k in sizes]
    assert got == _reference_draws(21, pool, sizes)
    again = _CharBuffer(random.Random(21), pool)
    assert [again.take(k) for k in sizes] == got
    drawn = "".join(got)
    assert len(drawn) == sum(sizes) >= 100_000
    counts = Counter(drawn)
    assert set(counts) <= set(pool)
    expected = len(drawn) / len(pool)
    stat = sum((counts[c] - expected) ** 2 / expected for c in pool)
    assert _chi2_sf(stat, len(pool) - 1) >= MIN_P
    # The byte table itself is exactly uniform over the bytes it keeps.
    table_image = Counter(bytes(range(256)).translate(buf._table, buf._reject))
    assert sorted(table_image) == sorted(pool.encode())
    assert len(set(table_image.values())) == 1


@pytest.mark.parametrize("policy, noise", [
    ("basic8", 0.02), ("2class8", 0.02), ("2word12", 0.02), ("3class12", 0.02),
    ("length>=6,digits>=1", 0.02), ("4class8", 0.02), ("", 0.0),
])
def test_generate_keeps_attribute_laws(policy, noise):
    """Per-attribute histograms match the laws frozen in synth_laws."""
    expr = parse_policy(policy) if policy else PolicyExpr(())
    hists = build_histograms(generate(GeneratorSpec(expr, 100_000, noise, 12)))
    frozen = synth_laws.LAW_HISTOGRAMS[policy]
    p_values = {
        attr.value: _two_sample_p(frozen[attr.value], hist.counts)
        for attr, hist in hists.items()
    }
    assert min(p_values.values()) >= MIN_P, p_values


@pytest.mark.parametrize("policy, min_length", [("basic8", 8), ("2word12", 12)])
def test_length_violator_prefixes_keep_shuffled_order(policy, min_length):
    """A length violator is a prefix of a fully shuffled compliant password.

    Skipping a shuffle that only sets character order leaves the whole
    password's attributes alone but moves its prefixes: unshuffled letters
    put every lowercase letter before every uppercase one, and unshuffled
    nonletters put digits before symbols.
    """
    n = upper = symbol = upper_first = symbol_first = 0
    upper_then_lower = re.compile("[A-Z].*[a-z]")
    symbol_then_digit = re.compile("[^A-Za-z0-9].*[0-9]")
    for r in generate(GeneratorSpec(parse_policy(policy), 100_000, 0.5, 12)):
        text = r.text
        if len(text) >= min_length:
            continue
        n += 1
        upper += any(c.isupper() for c in text)
        symbol += any(not c.isalnum() for c in text)
        upper_first += upper_then_lower.search(text) is not None
        symbol_first += symbol_then_digit.search(text) is not None
    frozen_n, *frozen_counts = synth_laws.PREFIX_COUNTS[policy]
    z = {
        name: _z(k, n, frozen_k, frozen_n)
        for name, k, frozen_k in zip(
            ("upper", "symbol", "upper before lower", "symbol before digit"),
            (upper, symbol, upper_first, symbol_first),
            frozen_counts,
        )
    }
    assert max(abs(v) for v in z.values()) < MAX_Z, z


# --- compiled structure tables -----------------------------------------------
# Policy names of the CMU studies (Kelley et al. 2012, Shay et al. 2016) and
# the rules this repository's grid adds.
NAMED_POLICIES = (
    "basic8", "basic16", "1class8", "2class8", "3class8", "3class12", "3class16",
    "4class8", "2word12", "2word16", "3word16", "length>=6,digits>=1",
)


def _sampler_tables(policy):
    """The structure tables one sampler compiles: compliant and every violator kind."""
    sampler = _Sampler(parse_policy(policy), 0)
    sampler.compliant()
    for _ in range(2000):
        sampler.violator()
    return sampler._tables


def test_compiled_tables_are_cumulative_laws():
    tables = [table for policy in NAMED_POLICIES for table in _sampler_tables(policy).values()]
    tables += _TAIL_TABLES
    for cum, rows in tables:
        assert len(cum) == len(rows) == len(set(rows))
        assert cum[-1] == 1.0
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[0] > 0.0


@pytest.mark.parametrize("policy", NAMED_POLICIES)
def test_structure_tables_stay_small(policy):
    # The rows of a table are held for as long as its sampler lives.
    tables = _sampler_tables(policy)
    assert max(len(rows) for _, rows in tables.values()) <= 1000


@pytest.mark.parametrize("policy", ["basic8", "2word12"])
def test_structure_table_is_the_law_of_the_random_draw(policy):
    """200k structures drawn pick by pick at random follow the compiled table."""
    sampler = _Sampler(parse_policy(policy), 0)
    sampler.compliant()
    cum, rows = sampler._tables[(0, None, None)]
    rng = random.Random(17)

    def choose(weights):
        r = rng.random() * sum(weights)
        for i, w in enumerate(weights):
            r -= w
            if r < 0.0:
                return i
        return len(weights) - 1

    n = 200_000
    drawn = Counter(sampler._structure(choose, 0, None, None) for _ in range(n))
    assert set(drawn) <= set(rows)
    probs = [b - a for a, b in zip([0.0, *cum], cum)]
    bins, cur = [], [0, 0.0]
    for row, p in zip(rows, probs):
        cur[0] += drawn[row]
        cur[1] += n * p
        if cur[1] >= 20:
            bins.append(cur)
            cur = [0, 0.0]
    bins[-1][0] += cur[0]
    bins[-1][1] += cur[1]
    stat = sum((seen - expected) ** 2 / expected for seen, expected in bins)
    assert _chi2_sf(stat, len(bins) - 1) >= MIN_P
