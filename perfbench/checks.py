"""Output checkers. Each returns a list of problems; an empty list means correct.

The expectations come from perfbench.inputs (the benchmark's own decoder,
attribute counter and policy parser), never from the program under test.
"""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_HALF_UP, Decimal, localcontext

from inputs import parse_policy


def boundary_confidence(hist: dict[int, int], minimum: int) -> Decimal:
    """cum(minimum) / cum(minimum - 1), rounded half up to two decimals."""
    below = sum(n for v, n in hist.items() if v <= minimum - 1)
    at = below + hist.get(minimum, 0)
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(at) / Decimal(below)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


def infer_expectation(hists: dict[str, dict[int, int]], planted: dict[str, int], total: int) -> dict:
    return {
        "total": total,
        "rules": {a: (m, boundary_confidence(hists[a], m)) for a, m in planted.items()},
    }


def check_infer(doc: dict, expected: dict) -> list[str]:
    """`infer --format json` output against the planted rules."""
    problems = []
    if doc.get("total_records") != expected["total"]:
        problems.append(f"total_records {doc.get('total_records')} != {expected['total']}")
    rules = {r["attribute"]: r for r in doc.get("rules", [])}
    if set(rules) != set(expected["rules"]):
        problems.append(f"rules on {sorted(rules)} != planted {sorted(expected['rules'])}")
    for attr, (minimum, confidence) in expected["rules"].items():
        rule = rules.get(attr)
        if rule is None:
            continue
        if rule["min"] != minimum:
            problems.append(f"{attr} min {rule['min']} != planted {minimum}")
        if rule["method"] != "outlier":
            problems.append(f"{attr} method {rule['method']} != outlier")
        got = rule["confidence"]
        if got is None or Decimal(str(got)) != confidence:
            problems.append(f"{attr} confidence {got} != {confidence}")
    return problems


def parse_withcount_output(data: bytes) -> Counter:
    """Multiset of (multiplicity, password bytes) lines written by filter."""
    out = Counter()
    for line in data.split(b"\n")[:-1] if data else []:
        count, sep, password = line.lstrip(b" ").partition(b" ")
        if not sep or not count.isdigit():
            out[(-1, line)] += 1
        else:
            out[(int(count), password)] += 1
    if data and not data.endswith(b"\n"):
        out[(-1, data.rsplit(b"\n", 1)[-1])] += 1
    return out


def check_filter(summary: dict, out: bytes, rejected: bytes, expected: dict) -> list[str]:
    """`filter --input-format withcount` outputs against the benchmark's split.

    expected holds "compliant" and "rejected" multisets of (multiplicity,
    password bytes) and "total", the sum of every input multiplicity.
    """
    problems = []
    if summary.get("compliant", 0) + summary.get("rejected", 0) != expected["total"]:
        problems.append(
            f"compliant + rejected = {summary.get('compliant', 0) + summary.get('rejected', 0)}"
            f" != {expected['total']} input multiplicities"
        )
    for name, data in (("compliant", out), ("rejected", rejected)):
        got = parse_withcount_output(data)
        want = expected[name]
        if got != want:
            missing = sum((want - got).values())
            extra = sum((got - want).values())
            problems.append(f"{name} file: {missing} expected lines missing, {extra} unexpected")
        weight = sum(m * k for (m, _), k in want.items())
        if summary.get(name) != weight:
            problems.append(f"summary {name} {summary.get(name)} != {weight}")
    return problems


def _rule_methods(detail: str) -> dict[str, str]:
    methods = {}
    for term in detail.split():
        attr_min, _, method = term.rpartition(":")
        methods[attr_min.partition(">=")[0]] = method
    return methods


def check_eval(row: dict, policy: str, noise: float, count: int, truth: dict[str, int]) -> list[str]:
    """One `eval --format json` cell that should recover its ground truth."""
    problems = _eval_echo(row, policy, noise, count, truth)
    inferred = parse_policy(row.get("inferred", ""))
    if inferred != truth:
        problems.append(f"{policy} noise={noise}: inferred {inferred} != ground truth {truth}")
    if row.get("exact_match") is not True:
        problems.append(f"{policy} noise={noise}: exact_match is {row.get('exact_match')}")
    methods = _rule_methods(row.get("detail", ""))
    if set(methods) != set(inferred):
        problems.append(f"{policy} noise={noise}: detail {row.get('detail')!r} does not list the rules")
    if noise == 0 and any(m != "naive" for m in methods.values()):
        problems.append(f"{policy} noise=0: rule methods {methods} are not all naive")
    return problems


# What the 3class12 cells infer instead of classes>=3,length>=12 (the known
# synth fault): each class that uppers could stand in for reads as required.
KNOWN_3CLASS_MISS = {"length": 12, "lowers": 1, "digits": 1, "symbols": 1}


def eval_mismatch(row: dict, policy: str, noise: float, count: int, truth: dict[str, int]) -> bool:
    """True when a 3class12 cell reports exactly the known miss, and nothing else wrong.

    The rules must be KNOWN_3CLASS_MISS, listed in detail, with lowers,
    digits and symbols found as outliers.
    """
    if policy != "3class12" or _eval_echo(row, policy, noise, count, truth):
        return False
    methods = _rule_methods(row.get("detail", ""))
    return (
        row.get("exact_match") is False
        and parse_policy(row.get("inferred", "")) == KNOWN_3CLASS_MISS
        and set(methods) == set(KNOWN_3CLASS_MISS)
        and all(methods[a] == "outlier" for a in ("lowers", "digits", "symbols"))
    )


def _eval_echo(row: dict, policy: str, noise: float, count: int, truth: dict[str, int]) -> list[str]:
    problems = []
    if row.get("policy") != policy or row.get("noise") != noise or row.get("count") != count:
        problems.append(f"cell echoes {row.get('policy')!r} {row.get('noise')} {row.get('count')}")
    if parse_policy(row.get("ground_truth", "")) != truth:
        problems.append(f"{policy}: ground_truth {row.get('ground_truth')!r} != {truth}")
    return problems
