#!/usr/bin/env python3
"""End-to-end benchmark of the pwpolicy command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each operation is one
``python -m pwpolicy.cli`` process importing the checkout's ``src``; its
wall time, CPU time and peak RSS (``os.wait4`` rusage, pool workers
included) are measured from outside by launcher.py, the two times (and the
set-up time) scaled to a reference host speed, and its output is checked
against the benchmark's own computation (inputs.py, checks.py). A run repeats whole
rounds of the workload's operations until S seconds of operations have been
timed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced in-process
replay (layers.py). See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import os
import sys

from launcher import Sampler

# Samples the host's speed from here to the end of set-up, to scale setup_s
# by (see _run). Started before NumPy is imported: NumPy starts threads, and
# forking a process that has threads is unsafe.
_SETUP_SAMPLER = Sampler(os.sched_getaffinity(0)) if __name__ == "__main__" else None

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
TRACES = os.path.join(HERE, "traces")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

OP_TIMEOUT_S = 150
PLAIN_LINES = 2_000_000
PLAIN_PLANTED = "length>=8,digits>=1"
INFER_THREADS = 2
SHARDS = 4
SHARD_LINES = 200_000
ZIPF_EXPONENT = 2.0
FILTER_POLICY = "length>=10,digits>=2"
# The Latin-1 shard does not depend on --seed: it is the one operation that
# fails every time (filter re-encodes Latin-1 passwords as UTF-8).
LATIN1_SHARD_SEED = 0
EVAL_POLICIES = ("basic8", "2class8", "2word12", "length>=6,digits>=1", "3class12")
EVAL_NOISES = (0.0, 0.02)
EVAL_COUNT = 50_000
# 3class12 cells miss their ground truth every time (synth's 3-class sets
# are too uneven); they run on fixed seeds so the failure never depends on
# --seed.
EVAL_FAILING = {"3class12": (5, 6)}
# Layer replay of the non-eval workloads: synth runs on one fixed corpus per
# policy, since those workloads never call it.
SYNTH_FIXED_COUNT = 20_000
# Operation times are reported as if launcher.py's probe loop took this long
# (about its mean on the host the benchmark was tuned on).
PROBE_REF_S = 0.0006


# --- running the program -------------------------------------------------------

@dataclass
class Result:
    wall: float
    cpu: float
    maxrss_kib: int
    returncode: int
    stdout: bytes
    stderr: bytes
    probes: list[float]


class Launcher:
    """The launcher.py process that starts every program process (see there why)."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str], pin: bool = True) -> Result:
        """One `python -m pwpolicy.cli` process with the checkout's sources.

        pin runs it on one CPU; leave it off for a program with workers.
        """
        out_path, err_path = os.path.join(WORK, "op.out"), os.path.join(WORK, "op.err")
        request = {
            "argv": [sys.executable, "-m", "pwpolicy.cli", *args],
            "env": dict(os.environ, PYTHONPATH=SRC),
            "cwd": WORK, "stdout": out_path, "stderr": err_path, "timeout": OP_TIMEOUT_S,
            "pin": pin,
        }
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        rep = json.loads(reply)
        return Result(rep["wall"], rep["cpu"], rep["maxrss_kib"], rep["returncode"],
                      read(out_path), read(err_path), rep["probes"])


def read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# --- workloads -----------------------------------------------------------------

@dataclass
class Op:
    name: str
    args: list[str]
    records: int
    outputs: tuple[str, ...] = ()  # files the operation writes, checked too
    pin: bool = True  # single process: run it on one CPU
    data: dict = field(default_factory=dict)  # what the checker and the replay need


class InferPlain:
    """infer --format json --threads 2 over one plain corpus with two planted rules."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Op]:
        self.data = inputs.generate_lines(np.random.default_rng(self.seed), PLAIN_LINES,
                                          inputs.PLAIN_MIX, inputs.PLAIN_REPEATS)
        self.path = os.path.join(WORK, "plain.txt")
        with open(self.path, "wb") as f:
            f.write(self.data)
        self._values = None
        return [Op("infer", ["infer", self.path, "--format", "json", "--threads", str(INFER_THREADS)],
                   PLAIN_LINES, pin=False, data={"path": self.path, "kind": "plain", "policy": PLAIN_PLANTED})]

    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = inputs.line_attributes(self.data)
        return self._values

    def reference(self, op: Op) -> tuple[np.ndarray, None]:
        return self.values(), None

    def check(self, op: Op, res: Result, files: list[bytes]) -> tuple[list[str], bool]:
        hists = inputs.histograms(self.values())
        expected = checks.infer_expectation(hists, inputs.parse_policy(PLAIN_PLANTED), PLAIN_LINES)
        return checks.check_infer(json.loads(res.stdout), expected), False


class FilterWithcount:
    """filter <policy> --input-format withcount over Zipf-weighted shards, one op per shard."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        ops = []
        self.shards = []
        self._values = {}
        for i in range(SHARDS):
            latin1 = i == SHARDS - 1
            shard_rng = np.random.default_rng(LATIN1_SHARD_SEED) if latin1 else rng
            mix = inputs.LATIN1_SHARD_MIX if latin1 else inputs.SHARD_MIX
            data, counts, passwords = inputs.withcount_shard(shard_rng, SHARD_LINES, mix, ZIPF_EXPONENT)
            path = os.path.join(WORK, f"shard{i}.txt")
            with open(path, "wb") as f:
                f.write(data)
            out, rej = os.path.join(WORK, f"shard{i}.ok"), os.path.join(WORK, f"shard{i}.rej")
            self.shards.append((counts, passwords))
            ops.append(Op(
                f"shard{i}",
                ["filter", path, FILTER_POLICY, "--input-format", "withcount", "--out", out, "--reject", rej],
                SHARD_LINES, outputs=(out, rej),
                data={"path": path, "kind": "withcount", "policy": FILTER_POLICY, "shard": i, "latin1": latin1},
            ))
        return ops

    def reference(self, op: Op) -> tuple[np.ndarray, np.ndarray]:
        i = op.data["shard"]
        counts, passwords = self.shards[i]
        if i not in self._values:
            self._values[i] = inputs.line_attributes(b"\n".join(passwords) + b"\n")
        return self._values[i], counts

    def check(self, op: Op, res: Result, files: list[bytes]) -> tuple[list[str], bool]:
        counts, passwords = self.shards[op.data["shard"]]
        values, _ = self.reference(op)
        summary = json.loads(res.stdout)
        problems = checks.check_filter(summary, *files, filter_expectation(counts, passwords, values))
        # The known fault: Latin-1 passwords come back UTF-8 encoded.
        known = bool(problems) and op.data["latin1"] and not checks.check_filter(
            summary, *files, filter_expectation(counts, passwords, values, transcode=True))
        return problems, known


def filter_expectation(counts, passwords, values, transcode=False) -> dict:
    """The benchmark's own split of a shard by FILTER_POLICY.

    Passwords lose their trailing CR. With transcode, Latin-1 passwords are
    expected back UTF-8 encoded, which is what the program does.
    """
    ok = inputs.complies(values, inputs.parse_policy(FILTER_POLICY))
    expected = [p[:-1] if p.endswith(b"\r") else p for p in passwords]
    if transcode:
        expected = [inputs.decode(p).encode("utf-8") for p in expected]
    compliant, rejected = Counter(), Counter()
    for c, p, good in zip(counts.tolist(), expected, ok.tolist()):
        (compliant if good else rejected)[(c, p)] += 1
    return {"compliant": compliant, "rejected": rejected, "total": int(counts.sum())}


class EvalGrid:
    """One eval --format json per (policy, noise) cell; no corpus file is read."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Op]:
        ops = []
        index = 0
        for policy in EVAL_POLICIES:
            for k, noise in enumerate(EVAL_NOISES):
                fixed = EVAL_FAILING.get(policy)
                cell_seed = fixed[k] if fixed else self.seed * 100 + index
                index += 1
                ops.append(Op(
                    f"{policy}@{noise}",
                    ["eval", "--policy", policy, "--noise", str(noise), "--count", str(EVAL_COUNT),
                     "--seed", str(cell_seed), "--format", "json"],
                    EVAL_COUNT + inputs.noise_count(EVAL_COUNT, noise),
                    data={"policy": policy, "noise": noise, "seed": cell_seed, "kind": "plain",
                          "expect_mismatch": fixed is not None},
                ))
        return ops

    def check(self, op: Op, res: Result, files: list[bytes]) -> tuple[list[str], bool]:
        rows = json.loads(res.stdout)
        if len(rows) != 1:
            return [f"{op.name}: {len(rows)} rows, expected 1"], False
        policy, noise = op.data["policy"], op.data["noise"]
        truth = inputs.parse_policy(policy)
        problems = checks.check_eval(rows[0], policy, noise, EVAL_COUNT, truth)
        known = bool(problems) and op.data["expect_mismatch"] and checks.eval_mismatch(
            rows[0], policy, noise, EVAL_COUNT, truth)
        return problems, known


WORKLOADS = {"infer_plain": InferPlain, "filter_withcount": FilterWithcount, "eval_grid": EvalGrid}


# --- measuring -------------------------------------------------------------------

class Verifier:
    """Checks each distinct output of an operation once.

    Returns "ok", "failed" (the operation shows a known program fault) or
    "incorrect".
    """

    def __init__(self, workload):
        self.workload = workload
        self.seen: dict[tuple[str, bytes], str] = {}
        self.problems: list[str] = []

    def __call__(self, op: Op, res: Result) -> str:
        if res.returncode != 0:
            self.problems.append(f"{op.name}: exit {res.returncode}: {res.stderr[-500:]!r}")
            return "incorrect"
        files = [read(p) for p in op.outputs]
        digest = hashlib.sha256(b"\0".join([res.stdout, *files])).digest()
        key = (op.name, digest)
        if key not in self.seen:
            try:
                problems, known = self.workload.check(op, res, files)
            except (ValueError, KeyError, TypeError) as exc:
                problems, known = [f"{op.name}: unreadable output: {exc!r}"], False
            if problems and not known:
                self.problems.extend(f"{op.name}: {p}" for p in problems)
            self.seen[key] = "ok" if not problems else ("failed" if known else "incorrect")
        return self.seen[key]


@dataclass
class Totals:
    wall: float = 0.0
    cpu: float = 0.0
    norm_wall: float = 0.0
    norm_cpu: float = 0.0
    records: int = 0
    peak_kib: int = 0
    statuses: list[str] = field(default_factory=list)


def run_round(launch, ops: list[Op], verify: Verifier, totals: Totals, after_op=None) -> float:
    """Each op once; returns the seconds the round counts toward the run length."""
    counted = 0.0
    for op in ops:
        res = launch(op.args, op.pin)
        totals.wall += res.wall
        totals.cpu += res.cpu
        # Wall time waits for the slowest CPU; CPU time is spent on all of them.
        totals.norm_wall += res.wall * PROBE_REF_S / max(res.probes)
        totals.norm_cpu += res.cpu * PROBE_REF_S / statistics.mean(res.probes)
        totals.records += op.records
        totals.peak_kib = max(totals.peak_kib, res.maxrss_kib)
        totals.statuses.append(verify(op, res))
        counted += res.wall
        if after_op is not None:
            counted += after_op(op, res)
    return counted


def measure(launch, ops: list[Op], seconds: float, verify: Verifier) -> Totals:
    """Whole rounds of ops until `seconds` of operations have been timed."""
    totals = Totals()
    timed = 0.0
    while not totals.statuses or timed < seconds:
        timed += run_round(launch, ops, verify, totals)
    return totals


def end_to_end(totals: Totals, setup_s: float) -> dict:
    return {
        "records_per_s": (totals.records / totals.norm_wall, "records/s"),
        "cpu_s_per_mrecord": (totals.norm_cpu / totals.records * 1e6, "s"),
        "peak_rss_mib": (totals.peak_kib / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


# --- traced replay ---------------------------------------------------------------

def policy_key(policy: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in policy.replace(">=", "")).strip("_")


class Replay:
    """Per-operation in-process replay under spans, run after each CLI operation."""

    def __init__(self, workload, tracer, verify: Verifier):
        import layers
        self.layers = layers
        self.workload = workload
        self.tracer = tracer
        self.verify = verify
        self.overheads: list[float] = []
        self.round_spans: list[int] = []
        self.shapes: dict[str, tuple[int, int]] = {}  # op name -> (distinct shapes, records)
        self.generated = 0

    def __call__(self, op: Op, res: Result) -> float:
        t0 = time.perf_counter()
        with self.tracer.span(f"op:{op.name}") as span:
            if isinstance(self.workload, EvalGrid):
                path = os.path.join(WORK, "cell.txt")
                self.generated += self.layers.generate_to_file(
                    self.tracer, f"synth.generate.{policy_key(op.data['policy'])}",
                    op.data["policy"], EVAL_COUNT, op.data["noise"], op.data["seed"], path)
                values, weights = inputs.line_attributes(read(path)), None
                policy = op.data["policy"]
            else:
                path, policy = op.data["path"], op.data["policy"]
                values, weights = self.workload.reference(op)
            t1, t2 = self.layers.corpus_layers(self.tracer, path, op.data["kind"], policy)
        own = inputs.histograms(values, weights)
        total = len(values) if weights is None else int(weights.sum())
        for name, got in (("threads=1", t1), ("threads=2", t2)):
            for attr, hist in own.items():
                if got[attr] != (hist, total):
                    self.verify.problems.append(f"{op.name}: scan_file {name} {attr} histogram differs")
        self.shapes[op.name] = (inputs.distinct_shapes(values), len(values))
        sums = self.tracer.totals(span[0])
        in_process = sum(sums.get(n, 0.0) for n in self._layer_names(op))
        self.overheads.append(res.wall - in_process)
        return time.perf_counter() - t0

    def _layer_names(self, op: Op) -> tuple[str, ...]:
        if isinstance(self.workload, InferPlain):
            return ("histogram.scan_t2", "inference.infer")
        if isinstance(self.workload, FilterWithcount):
            return ("corpus.read", "policy.filter")
        return (f"synth.generate.{policy_key(op.data['policy'])}", "histogram.build", "inference.infer")


def traced(launch, workload, ops: list[Op], seconds: float, verify: Verifier) -> tuple[dict, list[str]]:
    from spans import Tracer, span_cost

    sys.path.insert(0, SRC)
    tracer = Tracer()
    replay = Replay(workload, tracer, verify)
    startups = [launch(["--version"]).wall for _ in range(5)]
    synth_parent = None
    if not isinstance(workload, EvalGrid):
        with tracer.span("synth.fixed") as s:
            synth_parent = s[0]
            for i, policy in enumerate(EVAL_POLICIES):
                replay.generated += replay.layers.generate_to_file(
                    tracer, f"synth.generate.{policy_key(policy)}", policy,
                    SYNTH_FIXED_COUNT, EVAL_NOISES[-1], i, None)

    totals = Totals()
    timed = 0.0
    while not replay.round_spans or timed < seconds:
        with tracer.span("round") as round_span:
            replay.round_spans.append(round_span[0])
            timed += run_round(launch, ops, verify, totals, after_op=replay)

    per_round = [tracer.totals(r) for r in replay.round_spans]

    def layer(name):
        return statistics.median(t.get(name, 0.0) for t in per_round)

    shapes = sum(s for s, _ in replay.shapes.values())
    records = sum(n for _, n in replay.shapes.values())

    metrics = {
        "cli.startup_s": (statistics.median(startups), "s"),
        "cli.overhead_s": (statistics.median(replay.overheads), "s"),
        "corpus.read_s": (layer("corpus.read"), "s"),
        "attributes.extract_s": (layer("attributes.extract"), "s"),
        "histogram.build_s": (layer("histogram.build"), "s"),
        "histogram.build_self_s": (layer("histogram.build") - layer("attributes.extract"), "s"),
        "histogram.shape_hit_ratio": (1 - shapes / records, "ratio"),
        "histogram.shapes": (shapes, "count"),
        "histogram.records": (records, "count"),
        "histogram.scan_t1_s": (layer("histogram.scan_t1"), "s"),
        "histogram.scan_t2_s": (layer("histogram.scan_t2"), "s"),
        "histogram.parallel_speedup": (layer("histogram.scan_t1") / layer("histogram.scan_t2"), "ratio"),
        "histogram.merge_s": (layer("histogram.merge"), "s"),
        "inference.infer_s": (layer("inference.infer"), "s"),
        "policy.filter_s": (layer("policy.filter"), "s"),
    }
    if synth_parent is None:
        generated = replay.generated / len(per_round)
    else:
        fixed = tracer.totals(synth_parent)
        generated = replay.generated
    gen_total = 0.0
    for policy in EVAL_POLICIES:
        name = f"synth.generate.{policy_key(policy)}"
        t = layer(name) if synth_parent is None else fixed[name]
        gen_total += t
        metrics[f"synth.generate_s.{policy_key(policy)}"] = (t, "s")
    metrics["synth.generate_records_per_s"] = (generated / gen_total, "records/s")

    # An estimate: spans per round times the measured cost of one span, and
    # its share of the round's replayed layer time (the op: spans).
    overhead = span_cost() * len(tracer.spans) / len(per_round)
    traced_s = statistics.median(sum(t for n, t in r.items() if n.startswith("op:")) for r in per_round)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100 * overhead / traced_s, "%")
    os.makedirs(TRACES, exist_ok=True)
    tracer.write(os.path.join(TRACES, f"{type(workload).__name__}-seed{workload.seed}.json"))
    return metrics, totals.statuses


# --- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    # Started here when run.py was imported rather than run.
    sampler = _SETUP_SAMPLER or Sampler(os.sched_getaffinity(0))
    try:
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        if not os.path.isfile(os.path.join(SRC, "pwpolicy", "cli.py")):
            print(f"error: no pwpolicy sources under {SRC}; run from a source checkout", file=sys.stderr)
            return 2

        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        try:
            with Launcher() as launcher:
                return _run(args, launcher.run, sampler)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    finally:
        sampler.stop()


def _run(args, launch, sampler: Sampler) -> int:
    """Set up, start the program once untimed, measure, check, and report.

    setup_s runs from this script's first line to the first timed operation,
    scaled like the operation times by the probes `sampler` took meanwhile
    on every CPU (set-up is not pinned to one).
    """
    workload = WORKLOADS[args.workload](args.seed)
    verify = Verifier(workload)
    ops = workload.setup()
    start = launch(["--version"])
    if start.returncode != 0 or not start.stdout.startswith(b"pwpolicy "):
        print(f"error: the program did not start: {start.stderr[-500:]!r}", file=sys.stderr)
        return 2
    setup_s = (time.perf_counter() - _STARTED) * PROBE_REF_S / statistics.mean(sampler.stop())
    if args.trace:
        metrics, statuses = traced(launch, workload, ops, args.seconds, verify)
    else:
        totals = measure(launch, ops, args.seconds, verify)
        metrics, statuses = end_to_end(totals, setup_s), totals.statuses
        print(f"{'unscaled records_per_s':32s} {totals.records / totals.wall:14.6g} records/s")
        print(f"{'unscaled cpu_s_per_mrecord':32s} {totals.cpu / totals.records * 1e6:14.6g} s")

    for problem in verify.problems[:20]:
        print(f"INCORRECT {problem}", file=sys.stderr)
    correct = "incorrect" not in statuses and not verify.problems
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
