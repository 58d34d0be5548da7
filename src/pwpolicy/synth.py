"""Synthetic corpora: padding, corruption, and seeded generation.

Real-world validation data for policy inference is hard to come by, so this
module fabricates it. ``pad`` splices foreign corpora onto a base corpus
(modeling aggregator dumps that bundle sites with different policies).
``corrupt`` re-splits records on separator characters (modeling the classic
extraction bug where one credential line becomes several fragments).
``generate`` emits a corpus that provably satisfies a ground-truth policy,
plus a controlled fraction of violating noise records, so recovery can be
checked against a known answer.

Everything is driven by a single seeded PRNG per call and is fully
deterministic for a given spec and seed. ``generate`` draws characters in
batches of random bytes mapped onto each character pool through a byte
table (``_CharBuffer``), and shuffles a password only where order reaches an
attribute: letters against nonletters, which sets the letter-run count. The
case order within letters and the digit/symbol order within nonletters are
shuffled only for length violators, which keep a prefix of a compliant
draw and would otherwise see every lowercase letter before every uppercase
one.
"""

from __future__ import annotations

import itertools
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .attributes import AttributeId
from .corpus import PasswordRecord
from .policy import PolicyExpr

# Classes are plain ints 0..3 throughout this module: the sampler keys
# millions of small lookups per corpus and enum hashing is measurably slow.
_LOWER, _UPPER, _DIGIT, _SYMBOL = 0, 1, 2, 3
# Deliberately excludes space and comma so generated text is never split by
# the default corruption tokens unless a test injects separator-bearing rows.
_POOLS = (
    "abcdefghijklmnopqrstuvwxyz",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "0123456789",
    "!@#$%^&*_-+=?.;:",
)

_COUNT_ATTRS = {
    AttributeId.LOWERS: _LOWER,
    AttributeId.UPPERS: _UPPER,
    AttributeId.DIGITS: _DIGIT,
    AttributeId.SYMBOLS: _SYMBOL,
}

# banned is a 4-bit mask; precompute the surviving class lists per mask
_AVAIL = tuple(
    tuple(c for c in range(4) if not mask & (1 << c)) for mask in range(16)
)
_LETTERS_AVAIL = tuple(
    tuple(c for c in (_LOWER, _UPPER) if not mask & (1 << c)) for mask in range(16)
)
_LETTER_MASK = (1 << _LOWER) | (1 << _UPPER)

# --- sampling constants -----------------------------------------------------
# These weights shape the synthetic population so that, at the default
# inference cutoff of 2, only the ground-truth constraints stand out:
# single-class passwords dominate (classes decay), letterless passwords
# outnumber single-word ones (words stays flat), and per-class counts decay
# geometrically above their minima. Changing them casually will produce
# corpora whose unconstrained attributes read as policy outliers.
_BASE_WEIGHTS = (0.27, 0.08, 0.45, 0.20)
# Weights for picking which classes satisfy a classes>=k constraint. Every
# pair must stay common, or the rare classes read as banned and the frequent
# ones as required.
_SET_WEIGHTS = (0.18, 0.08, 0.42, 0.32)
_MANDATE_BOOST = 3.0
_EXTRA_CLASS_P = 0.22
_EXTRA_CLASS_DECAY = 0.25
_COUNT_TAIL_P = 0.45  # continue-probability of the per-class count tail
_LEN_TAIL_CONSTRAINED = 0.65  # decay per extra char over minimum, 9 steps
_LEN_TAIL_ORGANIC = 0.78  # decay for unconstrained lengths, from 1
_RUN_EXTRA_CUM = (0.70, 0.92)  # 0/1/2 extra letter runs
_CASE_CUM = (0.55, 0.77)  # all-lower / all-upper / mixed letter profile
_SEP_PICK_DIGIT = 0.55


def _geom_cum(ratio: float, steps: int) -> list[float]:
    weights = [ratio**k for k in range(steps)]
    total = sum(weights)
    acc, cum = 0.0, []
    for w in weights:
        acc += w / total
        cum.append(acc)
    return cum

_LEN_CUM_CONSTRAINED = _geom_cum(_LEN_TAIL_CONSTRAINED, 9)
_LEN_CUM_ORGANIC = _geom_cum(_LEN_TAIL_ORGANIC, 24)


def pad(base: Iterable[PasswordRecord], pads: Sequence[Iterable[PasswordRecord]]) -> Iterator[PasswordRecord]:
    """Concatenate a base corpus with any number of padding corpora."""
    return itertools.chain(base, *pads)


@dataclass(frozen=True)
class CorruptionSpec:
    """How to re-split records.

    Every character in ``tokens`` is a split point. A record containing at
    least one token character is split (at every occurrence) with the given
    probability; empty fragments between adjacent tokens are kept unless
    keep_empty_pieces is cleared.
    """

    tokens: str = " ,"
    probability: float = 1.0
    keep_empty_pieces: bool = True

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("tokens must contain at least one character")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


class CorruptStream:
    """Iterator over corrupted records; added_count is valid once exhausted.

    added_count is output records minus input records, i.e. the sum of
    (pieces - 1) over every record that was split. It can go negative when
    keep_empty_pieces is off and a record dissolves into nothing.
    """

    def __init__(self, records: Iterable[PasswordRecord], spec: CorruptionSpec, seed: int):
        self._records = records
        self._spec = spec
        self._rng = random.Random(seed)
        self._splitter = re.compile("[%s]" % re.escape(spec.tokens))
        self.added_count = 0

    def __iter__(self) -> Iterator[PasswordRecord]:
        spec = self._spec
        rng = self._rng
        split = self._splitter.split
        has_token = self._splitter.search
        for record in self._records:
            if has_token(record.text) is None:
                yield record
                continue
            if rng.random() >= spec.probability:
                yield record
                continue
            pieces = split(record.text)
            if not spec.keep_empty_pieces:
                pieces = [p for p in pieces if p]
            self.added_count += len(pieces) - 1
            for piece in pieces:
                yield PasswordRecord(piece, record.multiplicity)


def corrupt(records: Iterable[PasswordRecord], spec: CorruptionSpec, seed: int = 0) -> CorruptStream:
    """Split separator-bearing records into fragments, deterministically."""
    return CorruptStream(records, spec, seed)


@dataclass(frozen=True)
class GeneratorSpec:
    """A corpus recipe: ground truth, size, noise level, seed.

    The corpus contains compliant_count records satisfying every ground
    truth constraint plus floor(compliant_count * noise / (1 - noise))
    records violating at least one, interleaved deterministically.
    """

    ground_truth: PolicyExpr
    compliant_count: int
    noise_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.compliant_count < 0:
            raise ValueError("compliant_count must be >= 0")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError("noise_fraction must be within [0, 1)")

    @property
    def noise_count(self) -> int:
        return int(self.compliant_count * self.noise_fraction / (1.0 - self.noise_fraction))


class _CharBuffer:
    """Batched uniform character draws from one ASCII pool.

    A refill takes 16k random bytes from the sampler's rng and turns them
    into characters with one ``bytes.translate`` call, so the per-character
    work runs in C: byte b becomes ``pool[b % len(pool)]``, and bytes at or
    above ``256 - 256 % len(pool)`` are deleted first, so each character of
    the pool keeps exactly the same chance.
    """

    __slots__ = ("_rng", "_table", "_reject", "_buf", "_pos")
    _BATCH = 16384

    def __init__(self, rng: random.Random, pool: str):
        n = len(pool)
        self._rng = rng
        self._table = bytes(ord(pool[b % n]) for b in range(256))
        self._reject = bytes(range(256 - 256 % n, 256))
        self._buf = ""
        self._pos = 0

    def take(self, k: int) -> str:
        pos = self._pos
        end = pos + k
        if end <= len(self._buf):
            self._pos = end
            return self._buf[pos:end]
        head = self._buf[pos:]
        need = k - len(head)
        buf = ""
        while len(buf) < need:
            raw = self._rng.randbytes(max(self._BATCH, need))
            buf += raw.translate(self._table, self._reject).decode("ascii")
        self._buf = buf
        self._pos = need
        return head + buf[:need]


def _pick(rng: random.Random, candidates: Sequence[int], weights: Sequence[float]) -> int:
    if len(candidates) == 1:
        return candidates[0]
    total = 0.0
    for c in candidates:
        total += weights[c]
    r = rng.random() * total
    for c in candidates:
        r -= weights[c]
        if r < 0.0:
            return c
    return candidates[-1]


class _Sampler:
    """Draws compliant passwords and targeted violators for one policy."""

    def __init__(self, expr: PolicyExpr, seed: int):
        self.rng = random.Random(seed)
        minima = expr.minima()
        self.length_min = minima.get(AttributeId.LENGTH, 0)
        self.words_min = minima.get(AttributeId.WORDS, 0)
        self.classes_min = minima.get(AttributeId.CLASSES, 0)
        if self.classes_min > 4:
            raise ValueError("classes minimum cannot exceed 4")
        self.class_min = [0, 0, 0, 0]
        for attr, cls in _COUNT_ATTRS.items():
            self.class_min[cls] = minima.get(attr, 0)
        self.violatable = tuple(
            (attr, m) for attr, m in expr.constraints if m >= 1
        )
        self._buffers = tuple(_CharBuffer(self.rng, pool) for pool in _POOLS)

    # -- building blocks ----------------------------------------------------

    def _draw_length(self) -> int:
        r = self.rng.random()
        if self.length_min >= 1:
            return self.length_min + bisect_right(_LEN_CUM_CONSTRAINED, r)
        return 1 + bisect_right(_LEN_CUM_ORGANIC, r)

    def _sep_class(self, banned: int) -> int:
        # Callers never ban both nonletter classes at once.
        if banned & (1 << _DIGIT):
            return _SYMBOL
        if banned & (1 << _SYMBOL):
            return _DIGIT
        return _DIGIT if self.rng.random() < _SEP_PICK_DIGIT else _SYMBOL

    def _build(
        self,
        banned: int = 0,
        classes_exact: int | None = None,
        runs_target: int | None = None,
        shuffle_all: bool = False,
    ) -> str:
        """Assemble one password.

        banned is a bitmask of excluded classes (class-count violators);
        classes_exact pins the number of distinct classes (classes
        violators); runs_target pins the letter-run count (word violators
        and compliant word-policy passwords alike); shuffle_all keeps the
        shuffles that only set character order, for callers that cut the
        password (see _assemble).
        """
        rng = self.rng
        rnd = rng.random
        avail = _AVAIL[banned]
        letters_avail = _LETTERS_AVAIL[banned]
        if banned:
            floors = [
                0 if banned & (1 << c) else m for c, m in enumerate(self.class_min)
            ]
        else:
            floors = self.class_min.copy()
        nfloors = (floors[0] > 0) + (floors[1] > 0) + (floors[2] > 0) + (floors[3] > 0)
        runs = 0
        if classes_exact is None:
            if runs_target is not None:
                runs = runs_target
            elif self.words_min:
                r = rnd()
                runs = self.words_min + (r >= _RUN_EXTRA_CUM[0]) + (r >= _RUN_EXTRA_CUM[1])
            if runs and not letters_avail:
                runs = 0
        if runs:
            # Per-password case profile. Both single-case and mixed-case
            # populations stay common so neither letter count looks enforced
            # at the run-count boundary.
            if len(letters_avail) == 1:
                profile = ((letters_avail[0], runs),)
            else:
                r = rnd()
                if r < _CASE_CUM[0]:
                    profile = ((_LOWER, runs),)
                elif r < _CASE_CUM[1]:
                    profile = ((_UPPER, runs),)
                else:
                    profile = ((_LOWER, runs - 1 if runs > 1 else 1), (_UPPER, 1))
            for cls, m in profile:
                if floors[cls] < m:
                    if not floors[cls]:
                        nfloors += 1
                    floors[cls] = m
            if runs >= 2 and not floors[_DIGIT] and not floors[_SYMBOL]:
                floors[self._sep_class(banned)] = 1
                nfloors += 1
        if classes_exact is not None:
            for cls in (_SYMBOL, _DIGIT, _UPPER, _LOWER):
                if nfloors <= classes_exact:
                    break
                if floors[cls]:
                    floors[cls] = 0
                    nfloors -= 1
            while nfloors < classes_exact:
                floors[_pick(rng, [c for c in avail if not floors[c]], _SET_WEIGHTS)] = 1
                nfloors += 1
        else:
            target = self.classes_min if self.classes_min < len(avail) else len(avail)
            while nfloors < target:
                floors[_pick(rng, [c for c in avail if not floors[c]], _SET_WEIGHTS)] = 1
                nfloors += 1
        if classes_exact is not None or self.classes_min >= 2 or runs:
            # The bulk class comes from within the chosen set; spilling it
            # outside would make the spilled class look mandatory.
            base = _pick(rng, [c for c in range(4) if floors[c]], _BASE_WEIGHTS)
        elif nfloors:
            # Mandated presence classes bias the bulk pick but must not own
            # it, or their count histogram just mirrors the length one.
            total = 0.0
            for c in avail:
                total += _BASE_WEIGHTS[c] * (_MANDATE_BOOST if floors[c] else 1.0)
            r = rnd() * total
            base = avail[-1]
            for c in avail:
                r -= _BASE_WEIGHTS[c] * (_MANDATE_BOOST if floors[c] else 1.0)
                if r < 0.0:
                    base = c
                    break
            if not floors[base]:
                floors[base] = 1
                nfloors += 1
        else:
            base = _pick(rng, avail, _BASE_WEIGHTS)
            floors[base] = 1
            nfloors = 1
        if classes_exact is None:
            p = _EXTRA_CLASS_P
            while nfloors < len(avail) and rnd() < p:
                floors[_pick(rng, [c for c in avail if not floors[c]], _BASE_WEIGHTS)] = 1
                nfloors += 1
                p *= _EXTRA_CLASS_DECAY
        counts = [0, 0, 0, 0]
        nonbase = 0
        for cls in range(4):
            f = floors[cls]
            if f and cls != base:
                c = f
                while c - f < 6 and rnd() < _COUNT_TAIL_P:
                    c += 1
                counts[cls] = c
                nonbase += c
        n = self._draw_length()
        need = nonbase + floors[base]
        if n < need:
            n = need
        counts[base] = n - nonbase
        if runs:
            letters = counts[_LOWER] + counts[_UPPER]
            if letters < runs:
                cls = _LOWER if counts[_LOWER] else (
                    _UPPER if counts[_UPPER] else letters_avail[0]
                )
                counts[cls] += runs - letters
            nonletters = counts[_DIGIT] + counts[_SYMBOL]
            if nonletters < runs - 1:
                cls = _DIGIT if counts[_DIGIT] else (
                    _SYMBOL if counts[_SYMBOL] else self._sep_class(banned)
                )
                counts[cls] += runs - 1 - nonletters
        return self._assemble(counts, runs, shuffle_all)

    def _assemble(self, counts: list, runs: int, shuffle_all: bool) -> str:
        rng = self.rng
        bufs = self._buffers
        lo = bufs[_LOWER].take(counts[_LOWER]) if counts[_LOWER] else ""
        up = bufs[_UPPER].take(counts[_UPPER]) if counts[_UPPER] else ""
        di = bufs[_DIGIT].take(counts[_DIGIT]) if counts[_DIGIT] else ""
        sy = bufs[_SYMBOL].take(counts[_SYMBOL]) if counts[_SYMBOL] else ""
        letters = lo + up
        nonletters = di + sy
        # Only the order of letters against nonletters reaches an attribute
        # (words), so that is the one shuffle every password gets. The case
        # order within letters and the digit/symbol order within nonletters
        # change no attribute of the whole password, but they do change a
        # prefix of it, so shuffle_all keeps them for length violators.
        if not runs or not letters:
            if not letters or not nonletters:
                blend = letters or nonletters
                if shuffle_all and ((lo and up) or (di and sy)):
                    blend = self._shuffled(blend)
                return blend
            return self._shuffled(letters + nonletters)
        if shuffle_all:
            if lo and up:
                letters = self._shuffled(letters)
            if di and sy:
                nonletters = self._shuffled(nonletters)
        nl = len(letters)
        runs = min(runs, nl, len(nonletters) + 1)
        rnd = rng.random
        if runs <= 1:
            groups = [letters]
            runs = 1
        else:
            if runs == 2:
                cuts = [1 + int(rnd() * (nl - 1))]
            else:
                distinct = set()
                while len(distinct) < runs - 1:
                    distinct.add(1 + int(rnd() * (nl - 1)))
                cuts = sorted(distinct)
            bounds = [0, *cuts, nl]
            groups = [letters[bounds[i]:bounds[i + 1]] for i in range(runs)]
        nseps = runs - 1
        seps = [[nonletters[i]] for i in range(nseps)]
        prefix: list[str] = []
        suffix: list[str] = []
        for ch in nonletters[nseps:]:
            r = rnd()
            if r < 0.5 and nseps:
                seps[int(rnd() * nseps)].append(ch)
            elif r < 0.7:
                prefix.append(ch)
            else:
                suffix.append(ch)
        parts = ["".join(prefix)]
        for i, group in enumerate(groups):
            if i:
                parts.append("".join(seps[i - 1]))
            parts.append(group)
        parts.append("".join(suffix))
        return "".join(parts)

    def _shuffled(self, s: str) -> str:
        # Fisher-Yates on rng.random(); random.shuffle costs one Python-level
        # getrandbits call per element, which dominates at corpus scale.
        chars = list(s)
        rnd = self.rng.random
        for i in range(len(chars) - 1, 0, -1):
            j = int(rnd() * (i + 1))
            chars[i], chars[j] = chars[j], chars[i]
        return "".join(chars)

    # -- public draws --------------------------------------------------------

    def compliant(self) -> str:
        return self._build()

    def violator(self) -> str:
        rng = self.rng
        attr, minimum = self.violatable[rng.randrange(len(self.violatable))]
        if attr is AttributeId.LENGTH:
            # Reuse a compliant draw, fully shuffled, and keep a short
            # prefix of it.
            cut = rng.randint(0 if minimum == 1 else 1, minimum - 1)
            return self._build(shuffle_all=True)[:cut]
        if attr is AttributeId.WORDS:
            fewer = rng.randint(0, minimum - 1)
            if fewer == 0:
                return self._build(banned=_LETTER_MASK)
            return self._build(runs_target=fewer)
        if attr is AttributeId.CLASSES:
            if minimum <= 1:
                return ""
            return self._build(classes_exact=rng.randint(1, minimum - 1))
        return self._build(banned=1 << _COUNT_ATTRS[attr])


def generate(spec: GeneratorSpec) -> Iterator[PasswordRecord]:
    """Stream the synthetic corpus described by spec.

    Deterministic for a fixed spec: one seeded PRNG drives record order,
    structure, and characters. Compliant and noise records are interleaved
    so prefixes of the stream already look like the whole.
    """
    sampler = _Sampler(spec.ground_truth, spec.seed)
    noise_left = spec.noise_count
    if noise_left and not sampler.violatable:
        raise ValueError("noise requested but the policy has no violatable constraint")
    rng = sampler.rng
    compliant_left = spec.compliant_count
    while compliant_left or noise_left:
        if noise_left and rng.random() * (compliant_left + noise_left) < noise_left:
            noise_left -= 1
            yield PasswordRecord(sampler.violator(), 1)
        else:
            compliant_left -= 1
            yield PasswordRecord(sampler.compliant(), 1)
