"""Policy inference from multiplier tables.

One rule per attribute: find the value whose multiplier is largest among
rows with enough cumulative support. If that maximum clears the cutoff,
everything at or below the spike is noise and the enforced minimum is the
next value up. If no spike clears the cutoff but the smallest observed
value sits above the attribute's natural floor, the corpus is treated as
noise-free and the smallest observed value itself is reported (the naive
rule, usable only because nothing below it occurred at all).

The cutoff defaults to 2: an enforced boundary at least doubles the
cumulative count, while organic distributions grow far more slowly.
``infer --cutoff`` sets another one for every attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .attributes import ATTRIBUTES, AttributeId
from .histogram import (
    Histogram,
    MultiplierTable,
    multiplier_table,
    rounded_multiplier,
)

METHOD_OUTLIER = "outlier"
METHOD_NAIVE = "naive"


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for rule extraction.

    min_support ignores rows whose cumulative count is still tiny; a handful
    of junk records must not manufacture a spike.
    """

    cutoff: float = 2.0
    min_support: int = 10

    def __post_init__(self) -> None:
        if self.cutoff <= 1.0:
            raise ValueError("cutoff must be > 1")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")


@dataclass(frozen=True)
class InferredRule:
    """One inferred constraint: attribute >= minimum.

    confidence is the winning multiplier for outlier rules and None for
    naive ones (a naive rule carries no spike to measure).
    """

    attribute: AttributeId
    minimum: int
    method: str
    confidence: float | None = None


@dataclass(frozen=True)
class Policy:
    """A set of inferred rules, at most one per attribute."""

    rules: tuple[InferredRule, ...] = ()
    name: str | None = None

    def minima(self) -> dict[AttributeId, int]:
        return {r.attribute: r.minimum for r in self.rules}


def infer_rule(table: MultiplierTable, config: InferenceConfig) -> InferredRule | None:
    """Extract the rule for one attribute, or None if it looks unconstrained."""
    attribute = table.attribute
    best = None
    # Last row never has a multiplier; ties go to the smallest value.
    for row in table.rows[:-1]:
        if row.cumulative < config.min_support:
            continue
        if best is None or row.multiplier > best.multiplier:
            best = row
    if best is not None and best.multiplier >= config.cutoff:
        return InferredRule(
            attribute=attribute,
            minimum=best.value + 1,
            method=METHOD_OUTLIER,
            confidence=best.multiplier,
        )
    v0 = table.rows[0].value
    if v0 > attribute.floor:
        return InferredRule(attribute=attribute, minimum=v0, method=METHOD_NAIVE)
    return None


def implied_minimum(attribute: AttributeId, minima: Mapping[AttributeId, int]) -> int:
    """Largest minimum for `attribute` already guaranteed by other constraints.

    Letter-run and class-count constraints overlap: two letter runs force a
    letter plus a separating non-letter (hence two classes and three
    characters), per-class minima force both classes and length, and so on.
    """
    lowers = minima.get(AttributeId.LOWERS, 0)
    uppers = minima.get(AttributeId.UPPERS, 0)
    digits = minima.get(AttributeId.DIGITS, 0)
    symbols = minima.get(AttributeId.SYMBOLS, 0)
    words = minima.get(AttributeId.WORDS, 0)
    if attribute is AttributeId.WORDS:
        return 1 if (lowers or uppers) else 0
    if attribute is AttributeId.CLASSES:
        witnesses = (lowers > 0) + (uppers > 0) + (digits > 0) + (symbols > 0)
        if words >= 1 and not (lowers or uppers):
            witnesses += 1  # some letter class must appear
        if words >= 2 and not (digits or symbols):
            witnesses += 1  # runs need a non-letter separator
        return witnesses
    if attribute is AttributeId.LENGTH:
        letters = max(lowers + uppers, words)
        nonletters = max(digits + symbols, words - 1 if words else 0)
        return max(letters + nonletters, minima.get(AttributeId.CLASSES, 0))
    return 0


def prune_implied(rules: Iterable[InferredRule]) -> tuple[InferredRule, ...]:
    """Drop rules that are logical consequences of the remaining ones.

    A corpus of two-word passwords necessarily shows two classes, so a
    classes >= 2 finding adds nothing next to words >= 2. Implications only
    flow from count/word constraints toward words/classes/length, never
    back, so a single pass with bounds computed from the other rules is a
    fixpoint.
    """
    rules = tuple(rules)
    kept = []
    for rule in rules:
        others = {r.attribute: r.minimum for r in rules if r is not rule}
        if rule.minimum > implied_minimum(rule.attribute, others):
            kept.append(rule)
    return tuple(kept)


def name_policy(rules: Iterable[InferredRule]) -> str | None:
    """Conventional shorthand for common policy shapes, if one applies.

    basicN for a bare length minimum, kwordN / kclassN for a length minimum
    paired with a word or class minimum.
    """
    minima = {r.attribute: r.minimum for r in rules}
    length = minima.get(AttributeId.LENGTH)
    if length is None:
        return None
    if len(minima) == 1:
        return f"basic{length}"
    if len(minima) == 2:
        words = minima.get(AttributeId.WORDS)
        if words is not None:
            return f"{words}word{length}"
        classes = minima.get(AttributeId.CLASSES)
        if classes is not None:
            return f"{classes}class{length}"
    return None


def infer_policy(
    histograms: Mapping[AttributeId, Histogram],
    config: InferenceConfig | None = None,
) -> Policy:
    """Infer a full policy from per-attribute histograms.

    Vacuous rules (minimum at the attribute's floor) and rules implied by
    the rest of the policy are dropped; what remains is the minimal rule
    set the corpus actually evidences.
    """
    if config is None:
        config = InferenceConfig()
    rules = []
    for attr in ATTRIBUTES:
        hist = histograms.get(attr)
        if hist is None or not hist.counts:
            continue
        rule = infer_rule(multiplier_table(hist), config)
        if rule is not None and rule.minimum > attr.floor:
            rules.append(rule)
    pruned = prune_implied(rules)
    return Policy(rules=pruned, name=name_policy(pruned))


def policy_to_json(
    policy: Policy, config: InferenceConfig, total_records: int
) -> dict:
    """JSON-ready dict; confidences carry the 2-decimal display rounding."""
    return {
        "rules": [
            {
                "attribute": rule.attribute.value,
                "min": rule.minimum,
                "confidence": rounded_multiplier(rule.confidence),
                "method": rule.method,
            }
            for rule in policy.rules
        ],
        "name": policy.name,
        "cutoff": config.cutoff,
        "min_support": config.min_support,
        "total_records": total_records,
    }
