"""Synthetic corpora: padding, corruption, and seeded generation.

Real-world validation data for policy inference is hard to come by, so this
module fabricates it. ``pad`` splices foreign corpora onto a base corpus
(modeling aggregator dumps that bundle sites with different policies).
``corrupt`` re-splits records on separator characters (modeling the classic
extraction bug where one credential line becomes several fragments);
``corrupt_stream`` re-splits a corpus stream's line bytes (synth corrupt).
``generate`` emits a corpus that provably satisfies a ground-truth policy,
plus a controlled fraction of violating noise records, so recovery can be
checked against a known answer.

Everything is driven by a single seeded PRNG per call and is fully
deterministic for a given spec and seed. ``generate`` draws each password's
class structure (class floors, bulk class, letter runs) from a table of that
structure's exact law: ``_Sampler._structure`` makes its random picks
through a ``choose(weights)`` callable, and ``_compile`` replays every
sequence of picks once, when a sampler first needs the structure for a
policy and violator kind, into a cumulative table searched with one
``random()`` per password. One more ``random()`` draws all per-class count
tails from a module-level joint table (``_TAIL_TABLES``). Characters come in
batches of random bytes mapped onto each character pool through a byte
table (``_CharBuffer``), and a password is shuffled only where order reaches
an attribute: letters against nonletters, which sets the letter-run count.
The case order within letters and the digit/symbol order within nonletters
are shuffled only for length violators, which keep a prefix of a compliant
draw and would otherwise see every lowercase letter before every uppercase
one.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import BinaryIO, Callable, Hashable, Iterable, Iterator, Sequence

from .attributes import AttributeId
from .corpus import CorpusFormat, PasswordRecord, ReadStats, _record_batches
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
_COUNT_TAIL_MAX = 6
_LEN_TAIL_CONSTRAINED = 0.65  # decay per extra char over minimum, 9 steps
_LEN_TAIL_ORGANIC = 0.78  # decay for unconstrained lengths, from 1
_RUN_EXTRA_WEIGHTS = (0.70, 0.22, 0.08)  # 0/1/2 extra letter runs
_CASE_WEIGHTS = (0.55, 0.22, 0.23)  # all-lower / all-upper / mixed letter profile
_SEP_WEIGHTS = (0.0, 0.0, 0.55, 0.45)  # the class of a forced word separator


def _cumulative(weights: Sequence[float]) -> list[float]:
    """Cumulative probabilities of weights, ending at exactly 1.0."""
    cum = list(itertools.accumulate(weights))
    total = cum[-1]
    return [c / total for c in cum]

_LEN_CUM_CONSTRAINED = _cumulative([_LEN_TAIL_CONSTRAINED**k for k in range(9)])
_LEN_CUM_ORGANIC = _cumulative([_LEN_TAIL_ORGANIC**k for k in range(24)])

# Joint law of k independent count tails (k = 0..3, one per class present
# beside the bulk class): each is geometric above the class floor, cut at
# _COUNT_TAIL_MAX. _TAIL_TABLES[k] is (cumulative, offset k-tuples).
_TAIL_LAW = [
    (1 - _COUNT_TAIL_P) * _COUNT_TAIL_P**t for t in range(_COUNT_TAIL_MAX)
] + [_COUNT_TAIL_P**_COUNT_TAIL_MAX]
_TAIL_TABLES = tuple(
    (_cumulative([math.prod(_TAIL_LAW[t] for t in row) for row in rows]), rows)
    for rows in (
        list(itertools.product(range(_COUNT_TAIL_MAX + 1), repeat=k)) for k in range(4)
    )
)


def _compile(draw: Callable[[Callable[[Sequence[float]], int]], Hashable]) -> tuple[list, list]:
    """Tabulate the law of ``draw(choose)`` as (cumulative, outcomes).

    ``choose(weights)`` stands for a random pick of index i with probability
    ``weights[i] / sum(weights)``. Every sequence of picks is replayed once,
    depth first; equal outcomes share one row, in the order first met.
    """
    law: dict = {}
    pending: list[tuple[int, ...]] = [()]
    while pending:
        path = pending.pop()
        taken: list[int] = []
        prob = 1.0

        def choose(weights: Sequence[float]) -> int:
            nonlocal prob
            if len(taken) < len(path):
                i = path[len(taken)]
            else:
                i = 0
                prefix = tuple(taken)
                pending.extend(prefix + (j,) for j in range(len(weights) - 1, 0, -1))
            taken.append(i)
            prob *= weights[i] / sum(weights)
            return i

        outcome = draw(choose)
        law[outcome] = law.get(outcome, 0.0) + prob
    return _cumulative(list(law.values())), list(law)


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
    keep_empty_pieces is off and a record dissolves into nothing. Records
    are split as UTF-8 bytes; UTF-8 is self-synchronising, so the pieces
    are exactly those of splitting the text.
    """

    def __init__(self, records: Iterable[PasswordRecord], spec: CorruptionSpec, seed: int):
        self._records = records
        self._spec = spec
        self._rng = random.Random(seed)
        tokens = (re.escape(t.encode("utf-8", "surrogatepass")) for t in spec.tokens)
        self._splitter = re.compile(b"|".join(tokens))
        self.added_count = 0

    def split(self, password: bytes) -> list[bytes] | None:
        """One password's pieces, or None to keep it whole; one random() if it holds a token."""
        spec = self._spec
        if self._splitter.search(password) is None or self._rng.random() >= spec.probability:
            return None
        pieces = self._splitter.split(password)
        if not spec.keep_empty_pieces:
            pieces = [p for p in pieces if p]
        self.added_count += len(pieces) - 1
        return pieces

    def __iter__(self) -> Iterator[PasswordRecord]:
        split = self.split
        for record in self._records:
            pieces = split(record.text.encode("utf-8", "surrogatepass"))
            if pieces is None:
                yield record
                continue
            for piece in pieces:
                yield PasswordRecord(piece.decode("utf-8", "surrogatepass"), record.multiplicity)


def corrupt(records: Iterable[PasswordRecord], spec: CorruptionSpec, seed: int = 0) -> CorruptStream:
    """Split separator-bearing records into fragments, deterministically."""
    return CorruptStream(records, spec, seed)


def corrupt_stream(stream: BinaryIO, fmt: CorpusFormat, spec: CorruptionSpec, seed: int,
                   out: BinaryIO, stats: ReadStats | None = None) -> int:
    """Corrupt a binary corpus stream's lines into ``out``; returns added_count.

    A line kept whole is written back as read (clamped, one trailing CR
    dropped); each piece of a split line follows that line's count prefix
    (nothing for plain input). Tokens match their UTF-8 encoding, so a line
    that is not UTF-8, which attributes.batch_values reads as Latin-1, is
    kept whole and draws no random().
    """
    splitter = CorruptStream((), spec, seed)
    split = splitter.split
    # Writing row by row holds no list of a chunk's output lines.
    write = out.write
    for lines, _, passwords in _record_batches(stream, fmt, stats):
        for raw, password in zip(lines, passwords):
            if not password.isascii():
                try:
                    password.decode("utf-8")
                except UnicodeDecodeError:
                    write(raw + b"\n")
                    continue
            pieces = split(password)
            if pieces is None:
                write(raw + b"\n")
            else:
                prefix = raw[:len(raw) - len(password)]
                out.writelines(prefix + piece + b"\n" for piece in pieces)
    return splitter.added_count


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
        self._tables: dict[tuple, tuple[list, list]] = {}

    # -- building blocks ----------------------------------------------------

    def _draw_length(self) -> int:
        r = self.rng.random()
        if self.length_min >= 1:
            return self.length_min + bisect_right(_LEN_CUM_CONSTRAINED, r)
        return 1 + bisect_right(_LEN_CUM_ORGANIC, r)

    def _structure(
        self,
        choose: Callable[[Sequence[float]], int],
        banned: int,
        classes_exact: int | None,
        runs_target: int | None,
    ) -> tuple:
        """One password's class structure, with every random pick made by choose.

        Returns (floors, base, tails, runs): each class's minimum count, the
        bulk class that takes up the rest of the length, the other classes
        present (each gets a count tail above its floor) and the letter-run
        count. See _build for the arguments.
        """
        avail = _AVAIL[banned]
        letters_avail = _LETTERS_AVAIL[banned]
        floors = [0 if banned & (1 << c) else m for c, m in enumerate(self.class_min)]

        def pick(candidates: Sequence[int], weights: Sequence[float]) -> int:
            return candidates[choose([weights[c] for c in candidates])]

        def present() -> int:
            return sum(f > 0 for f in floors)

        runs = 0
        if classes_exact is None:
            if runs_target is not None:
                runs = runs_target
            elif self.words_min:
                runs = self.words_min + choose(_RUN_EXTRA_WEIGHTS)
            if not letters_avail:
                runs = 0
        if runs:
            # Per-password case profile. Both single-case and mixed-case
            # populations stay common so neither letter count looks enforced
            # at the run-count boundary.
            if len(letters_avail) == 1:
                profile = ((letters_avail[0], runs),)
            else:
                profile = (
                    ((_LOWER, runs),),
                    ((_UPPER, runs),),
                    ((_LOWER, max(runs - 1, 1)), (_UPPER, 1)),
                )[choose(_CASE_WEIGHTS)]
            for cls, m in profile:
                floors[cls] = max(floors[cls], m)
            if runs >= 2 and not floors[_DIGIT] and not floors[_SYMBOL]:
                # Callers never ban both nonletter classes at once.
                floors[pick([c for c in (_DIGIT, _SYMBOL) if c in avail], _SEP_WEIGHTS)] = 1
        if classes_exact is not None:
            for cls in (_SYMBOL, _DIGIT, _UPPER, _LOWER):
                if present() > classes_exact:
                    floors[cls] = 0
            target = classes_exact
        else:
            target = min(self.classes_min, len(avail))
        while present() < target:
            floors[pick([c for c in avail if not floors[c]], _SET_WEIGHTS)] = 1
        if classes_exact is not None or self.classes_min >= 2 or runs:
            # The bulk class comes from within the chosen set; spilling it
            # outside would make the spilled class look mandatory.
            base = pick([c for c in range(4) if floors[c]], _BASE_WEIGHTS)
        else:
            # Mandated presence classes bias the bulk pick but must not own
            # it, or their count histogram just mirrors the length one.
            boosted = [w * _MANDATE_BOOST if f else w for w, f in zip(_BASE_WEIGHTS, floors)]
            base = pick(avail, boosted)
            floors[base] = max(floors[base], 1)
        if classes_exact is None:
            p = _EXTRA_CLASS_P
            while present() < len(avail) and choose((p, 1.0 - p)) == 0:
                floors[pick([c for c in avail if not floors[c]], _BASE_WEIGHTS)] = 1
                p *= _EXTRA_CLASS_DECAY
        tails = tuple(c for c in range(4) if floors[c] and c != base)
        return tuple(floors), base, tails, runs

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
        password (see _assemble). The structure comes from the table of
        _structure's law for these arguments, compiled on first use.
        """
        key = (banned, classes_exact, runs_target)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _compile(
                lambda choose: self._structure(choose, *key)
            )
        cum, rows = table
        rnd = self.rng.random
        floors, base, tails, runs = rows[bisect_right(cum, rnd())]
        counts = list(floors)
        if tails:
            tail_cum, offsets = _TAIL_TABLES[len(tails)]
            for cls, t in zip(tails, offsets[bisect_right(tail_cum, rnd())]):
                counts[cls] += t
        nonbase = sum(counts) - floors[base]
        n = self._draw_length()
        need = nonbase + floors[base]
        if n < need:
            n = need
        counts[base] = n - nonbase
        # The structure's letter floors already hold at least runs letters.
        if runs > 1:
            nonletters = counts[_DIGIT] + counts[_SYMBOL]
            if nonletters < runs - 1:
                # The structure gives every multi-run password a separator class.
                cls = _DIGIT if counts[_DIGIT] else _SYMBOL
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
