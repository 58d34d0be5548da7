from dataclasses import fields
from fractions import Fraction

import pytest

from pwpolicy.attributes import AttributeId
from pwpolicy.histogram import Histogram, format_multiplier, multiplier_table
from pwpolicy.inference import (
    METHOD_NAIVE,
    METHOD_OUTLIER,
    InferenceConfig,
    InferredRule,
    Policy,
    implied_minimum,
    infer_policy,
    infer_rule,
    name_policy,
    policy_to_json,
    prune_implied,
)
import refdata

CFG = InferenceConfig()


def hist_of(attr, counts):
    return Histogram(attr, dict(counts), sum(counts.values()))


def table_of(attr, counts):
    return multiplier_table(hist_of(attr, counts))


def test_length_outlier_rule():
    rule = infer_rule(table_of(AttributeId.LENGTH, refdata.LENGTH_FREQS), CFG)
    assert rule is not None
    assert rule.attribute is AttributeId.LENGTH
    assert rule.minimum == 6
    assert rule.method == METHOD_OUTLIER
    exact = refdata.exact_multipliers(refdata.LENGTH_FREQS)[5]
    assert abs(Fraction(rule.confidence) - exact) < Fraction(1, 10**9)
    assert format_multiplier(rule.confidence) == "137.23"


def test_flat_uppers_yields_no_rule():
    # Smallest observed value is the natural floor (0) and no multiplier
    # clears the cutoff, so the attribute reads as unconstrained.
    assert infer_rule(table_of(AttributeId.UPPERS, refdata.UPPERS_FREQS), CFG) is None


def test_words_and_classes_boundary_rules():
    words = infer_rule(table_of(AttributeId.WORDS, refdata.WORDS_FREQS), CFG)
    assert (words.minimum, words.method) == (2, METHOD_OUTLIER)
    assert format_multiplier(words.confidence) == "39.39"
    classes = infer_rule(table_of(AttributeId.CLASSES, refdata.CLASSES_FREQS), CFG)
    assert (classes.minimum, classes.method) == (2, METHOD_OUTLIER)
    assert format_multiplier(classes.confidence) == "84.87"


def test_argmax_beats_earlier_smaller_spike():
    # The words reference data has a sub-boundary spike (11.18 at value 0)
    # that also clears the cutoff; the larger spike at 1 must win.
    table = table_of(AttributeId.WORDS, refdata.WORDS_FREQS)
    assert table.rows[0].multiplier > 2
    rule = infer_rule(table, CFG)
    assert rule.minimum == 2


def test_tie_breaks_to_smallest_value():
    # cum: 10 -> 40 -> 160: multiplier exactly 4.0 at both steps.
    rule = infer_rule(table_of(AttributeId.DIGITS, {0: 10, 1: 30, 2: 120}), CFG)
    assert rule.minimum == 1
    assert rule.confidence == 4.0


def test_min_support_suppresses_junk_spike():
    # Both sub-boundary rows sit under the support threshold, and v0 is the
    # natural floor, so nothing at all comes out.
    counts = {0: 2, 1: 2, 2: 96}
    assert infer_rule(table_of(AttributeId.SYMBOLS, counts), CFG) is None


def test_min_support_threshold_is_exact():
    # Only the low-support row clears the cutoff.
    counts = {0: 2, 1: 6, 2: 92}
    table = table_of(AttributeId.SYMBOLS, counts)
    # multipliers: 0->1 is 4.0 (support 2), 1->2 is 12.5 (support 8).
    assert infer_rule(table, InferenceConfig(min_support=10)) is None
    strict = infer_rule(table, InferenceConfig(min_support=8))
    assert strict.minimum == 2
    assert strict.confidence == 12.5


def test_naive_fallback_when_floor_never_observed():
    # Everything is length >= 8, multipliers all under the cutoff.
    counts = {8: 100, 9: 80, 10: 64}
    rule = infer_rule(table_of(AttributeId.LENGTH, counts), CFG)
    assert rule.method == METHOD_NAIVE
    assert rule.minimum == 8
    assert rule.confidence is None


def test_no_rule_when_v0_at_floor_and_flat():
    counts = {1: 100, 2: 80, 3: 64}
    assert infer_rule(table_of(AttributeId.LENGTH, counts), CFG) is None


def test_lower_cutoff_admits_smaller_spike():
    counts = {0: 40, 1: 30}  # multiplier 1.75
    table = table_of(AttributeId.DIGITS, counts)
    assert infer_rule(table, CFG) is None
    eager = InferenceConfig(cutoff=1.5)
    rule = infer_rule(table, eager)
    assert rule.minimum == 1
    assert rule.confidence == 1.75


def test_config_validation():
    with pytest.raises(ValueError, match="cutoff must be > 1"):
        InferenceConfig(cutoff=1.0)
    with pytest.raises(ValueError, match="min_support"):
        InferenceConfig(min_support=0)
    assert [f.name for f in fields(InferenceConfig)] == ["cutoff", "min_support"]


def test_implied_minimum_cases():
    words2 = {AttributeId.WORDS: 2}
    assert implied_minimum(AttributeId.CLASSES, words2) == 2
    assert implied_minimum(AttributeId.LENGTH, words2) == 3
    assert implied_minimum(AttributeId.WORDS, {AttributeId.LOWERS: 1}) == 1
    assert implied_minimum(AttributeId.WORDS, {AttributeId.DIGITS: 3}) == 0
    # Distinct class witnesses add up.
    both = {AttributeId.LOWERS: 1, AttributeId.DIGITS: 2}
    assert implied_minimum(AttributeId.CLASSES, both) == 2
    assert implied_minimum(AttributeId.LENGTH, both) == 3
    # A words minimum with no letter-class rule still implies letters.
    assert implied_minimum(AttributeId.CLASSES, {AttributeId.WORDS: 1}) == 1
    # Class minimum alone bounds length.
    assert implied_minimum(AttributeId.LENGTH, {AttributeId.CLASSES: 3}) == 3
    assert implied_minimum(AttributeId.DIGITS, words2) == 0


def test_prune_implied_drops_consequences():
    rules = (
        InferredRule(AttributeId.LENGTH, 12, METHOD_OUTLIER, 30.0),
        InferredRule(AttributeId.WORDS, 2, METHOD_OUTLIER, 40.0),
        InferredRule(AttributeId.CLASSES, 2, METHOD_OUTLIER, 5.0),
    )
    kept = prune_implied(rules)
    assert {r.attribute for r in kept} == {AttributeId.LENGTH, AttributeId.WORDS}


def test_prune_implied_keeps_stronger_rule():
    rules = (
        InferredRule(AttributeId.WORDS, 2, METHOD_OUTLIER, 40.0),
        InferredRule(AttributeId.CLASSES, 3, METHOD_OUTLIER, 5.0),
    )
    kept = prune_implied(rules)
    # classes >= 3 exceeds what two words imply, so it survives.
    assert {r.attribute for r in kept} == {AttributeId.WORDS, AttributeId.CLASSES}


def test_prune_implied_short_length():
    rules = (
        InferredRule(AttributeId.LENGTH, 3, METHOD_NAIVE),
        InferredRule(AttributeId.WORDS, 2, METHOD_OUTLIER, 12.0),
    )
    kept = prune_implied(rules)
    assert {r.attribute for r in kept} == {AttributeId.WORDS}


def test_name_policy():
    def rules(**kw):
        return tuple(
            InferredRule(AttributeId.from_token(k), v, METHOD_NAIVE) for k, v in kw.items()
        )

    assert name_policy(rules(length=8)) == "basic8"
    assert name_policy(rules(length=12, words=2)) == "2word12"
    assert name_policy(rules(length=8, classes=2)) == "2class8"
    assert name_policy(rules(length=6, digits=1)) is None
    assert name_policy(rules(words=2)) is None
    assert name_policy(()) is None


def test_infer_policy_end_to_end():
    hists = {
        AttributeId.LENGTH: hist_of(AttributeId.LENGTH, refdata.LENGTH_FREQS),
        AttributeId.UPPERS: hist_of(AttributeId.UPPERS, refdata.UPPERS_FREQS),
    }
    policy = infer_policy(hists)
    assert policy.minima() == {AttributeId.LENGTH: 6}
    assert policy.name == "basic6"
    assert policy.rules[0].method == METHOD_OUTLIER


def test_infer_policy_drops_vacuous_naive_rule():
    # classes == 1 everywhere: v0 equals the floor, nothing inferred.
    hists = {AttributeId.CLASSES: hist_of(AttributeId.CLASSES, {1: 50})}
    assert infer_policy(hists).rules == ()


def test_infer_policy_skips_missing_or_empty_histograms():
    hists = {AttributeId.LENGTH: Histogram(AttributeId.LENGTH, {}, 0)}
    assert infer_policy(hists).rules == ()


def test_policy_to_json_shape():
    policy = Policy(
        rules=(InferredRule(AttributeId.LENGTH, 6, METHOD_OUTLIER, 137.2255), ),
        name="basic6",
    )
    doc = policy_to_json(policy, CFG, total_records=2084689)
    assert doc == {
        "rules": [
            {"attribute": "length", "min": 6, "confidence": 137.23, "method": "outlier"}
        ],
        "name": "basic6",
        "cutoff": 2.0,
        "min_support": 10,
        "total_records": 2084689,
    }
