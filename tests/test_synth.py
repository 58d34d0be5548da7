import hashlib
import itertools
import re

import pytest

from pwpolicy.attributes import AttributeId, extract
from pwpolicy.corpus import PasswordRecord
from pwpolicy.policy import PolicyExpr, complies, parse_policy
from pwpolicy.synth import CorruptionSpec, GeneratorSpec, corrupt, generate, pad


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


# md5 of the bytes `synth generate` writes (one text + "\n" per record),
# 5,000 compliant records, seed 7. Changing these is changing the generator:
# say so, and update them on purpose.
GOLDEN_GENERATE_MD5 = {
    ("basic8", 0.02): "b45b13057c248a0334629ab7f4d277b2",
    ("2word12", 0.02): "e7a1830d838ca02637f11bbcf24953fa",
    ("3class12", 0.02): "dc0d8109c113dde3845fef9673cb9769",
    ("", 0.0): "0d411806b6e59e8e13a9834be0bc6b1a",
}


@pytest.mark.parametrize("policy, noise", sorted(GOLDEN_GENERATE_MD5))
def test_generate_output_is_pinned_per_seed(policy, noise):
    expr = parse_policy(policy) if policy else PolicyExpr(())
    data = "".join(r.text + "\n" for r in generate(GeneratorSpec(expr, 5000, noise, 7)))
    assert hashlib.md5(data.encode("utf-8")).hexdigest() == GOLDEN_GENERATE_MD5[(policy, noise)]
