#!/usr/bin/env python3
"""Self-check of the benchmark's own checks.

    python3 perfbench/selfcheck.py

Runs the program once per checker on small inputs, then confirms that each
checker accepts the real output and reports a deliberately wrong
expectation as incorrect: a planted minimum off by one (infer), one record
dropped from a reject file (filter) and one cell's ground truth altered
(eval). It also confirms that the array-based attribute counter agrees with
the per-line one, that the two known program faults are recognised as
such, and that another wrong 3class12 inference is not. Prints one line per
check; exits 1 if any check misbehaves.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import inputs
import run

WORK = os.path.join(run.HERE, "selfcheck-work")


def cli(*args: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "pwpolicy.cli", *args], cwd=WORK, capture_output=True,
        env=dict(os.environ, PYTHONPATH=run.SRC), timeout=300, check=True,
    )
    return proc.stdout


def write(name: str, data: bytes) -> str:
    path = os.path.join(WORK, name)
    with open(path, "wb") as f:
        f.write(data)
    return path


def counter_agrees() -> bool:
    data = inputs.generate_lines(np.random.default_rng(0), 50_000, inputs.LATIN1_SHARD_MIX)
    lines = data.split(b"\n")[:-1]
    values = inputs.line_attributes(data)
    return all(tuple(v) == inputs.attributes(inputs.decode(raw)) for v, raw in zip(values.tolist(), lines))


def infer_checks() -> tuple[bool, bool]:
    n = 300_000
    data = inputs.generate_lines(np.random.default_rng(0), n, inputs.PLAIN_MIX, inputs.PLAIN_REPEATS)
    doc = json.loads(cli("infer", write("plain.txt", data), "--format", "json", "--threads", "2"))
    hists = inputs.histograms(inputs.line_attributes(data))
    planted = inputs.parse_policy(run.PLAIN_PLANTED)
    good = checks.check_infer(doc, checks.infer_expectation(hists, planted, n))
    off_by_one = dict(planted, length=planted["length"] + 1)
    bad = checks.check_infer(doc, checks.infer_expectation(hists, off_by_one, n))
    return not good, bool(bad)


def filter_checks() -> tuple[bool, bool, bool]:
    results = []
    for name, mix in (("shard", inputs.SHARD_MIX), ("latin1", inputs.LATIN1_SHARD_MIX)):
        data, counts, passwords = inputs.withcount_shard(np.random.default_rng(0), 20_000, mix, run.ZIPF_EXPONENT)
        ok_path, rej_path = os.path.join(WORK, f"{name}.ok"), os.path.join(WORK, f"{name}.rej")
        summary = json.loads(cli("filter", write(f"{name}.txt", data), run.FILTER_POLICY,
                                 "--input-format", "withcount", "--out", ok_path, "--reject", rej_path))
        out, rej = run.read(ok_path), run.read(rej_path)
        values = inputs.line_attributes(b"\n".join(passwords) + b"\n")
        expected = run.filter_expectation(counts, passwords, values)
        problems = checks.check_filter(summary, out, rej, expected)
        if name == "shard":
            dropped = rej.split(b"\n", 1)[1]
            results.append(not problems)
            results.append(bool(checks.check_filter(summary, out, dropped, expected)))
        else:
            transcoded = run.filter_expectation(counts, passwords, values, transcode=True)
            known = not checks.check_filter(summary, out, rej, transcoded)
            results.append(bool(problems) and known)
    return tuple(results)


def eval_checks() -> tuple[bool, bool, bool]:
    count = 20_000
    row = json.loads(cli("eval", "--policy", "basic8", "--noise", "0", "--count", str(count),
                         "--seed", "0", "--format", "json"))[0]
    truth = inputs.parse_policy("basic8")
    good = checks.check_eval(row, "basic8", 0.0, count, truth)
    bad = checks.check_eval(row, "basic8", 0.0, count, {"length": 9})
    policy, seed = "3class12", run.EVAL_FAILING["3class12"][0]
    row = json.loads(cli("eval", "--policy", policy, "--noise", "0", "--count", str(run.EVAL_COUNT),
                         "--seed", str(seed), "--format", "json"))[0]
    truth = inputs.parse_policy(policy)
    known = bool(checks.check_eval(row, policy, 0.0, run.EVAL_COUNT, truth)) and checks.eval_mismatch(
        row, policy, 0.0, run.EVAL_COUNT, truth)
    # Another wrong inference on the same cell is not the known fault.
    other = dict(row, inferred="digits>=1,length>=12,lowers>=1",
                 detail="length>=12:naive lowers>=1:outlier digits>=1:outlier")
    other_known = checks.eval_mismatch(other, policy, 0.0, run.EVAL_COUNT, truth)
    return not good, bool(bad), known, not other_known


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        infer_ok, infer_bad = infer_checks()
        filter_ok, filter_bad, latin1_known = filter_checks()
        eval_ok, eval_bad, class3_known, class3_other = eval_checks()
        results = [
            ("array counter equals per-line counter", counter_agrees()),
            ("infer: real output accepted", infer_ok),
            ("infer: planted minimum off by one reported", infer_bad),
            ("filter: real output accepted", filter_ok),
            ("filter: record dropped from reject file reported", filter_bad),
            ("filter: Latin-1 shard fails only by re-encoding", latin1_known),
            ("eval: real cell accepted", eval_ok),
            ("eval: altered ground truth reported", eval_bad),
            ("eval: 3class12 cell shows exactly the known miss", class3_known),
            ("eval: another wrong 3class12 inference is not the known miss", class3_other),
        ]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())
