"""Command line surface.

Subcommands: hist, infer, filter, plot, synth pad|corrupt|generate, eval.
Exit codes are a stable contract: 0 success, 1 usage error, 2 I/O error,
3 corpus format or policy parse error. Every command streams its input;
peak memory is bounded by histogram value ranges, not corpus size.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import BinaryIO, Sequence, TextIO

from . import __version__
from .attributes import ATTRIBUTES, AttributeId
from .corpus import MAX_LINE_BYTES, CorpusFormat, CorpusFormatError, ReadStats
from .histogram import (
    MultiplierTable,
    build_histograms,
    format_multiplier,
    multiplier_table,
    scan_file,
    scan_stream,
    table_rows_json,
    table_to_csv,
)
from .inference import InferenceConfig, infer_policy, policy_to_json
from .policy import (
    PolicyExpr,
    PolicyParseError,
    filter_stream,
    parse_policy,
    policy_minima,
    render_policy,
)
from .synth import CorruptionSpec, GeneratorSpec, corrupt_stream, generate


class UsageError(Exception):
    """Bad invocation: unknown flags, unsatisfiable grids, empty input."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route through our codes.
    def error(self, message):
        raise UsageError(message)


def _corpus_format(args) -> CorpusFormat:
    return CorpusFormat(kind=args.input_format, skip_empty=args.skip_empty)


def _corpus_histograms(
    path: str, fmt: CorpusFormat, attributes: Sequence[AttributeId], threads: int
):
    stats = ReadStats()
    if path == "-":
        hists = scan_stream(sys.stdin.buffer, fmt, attributes, stats)
    else:
        hists = scan_file(path, fmt, attributes, threads=threads, stats=stats)
    _warn_clamped(stats)
    return hists


def _warn_clamped(stats: ReadStats) -> None:
    """One stderr line when the scan clamped any line, nothing otherwise."""
    n = stats.truncated
    if n:
        lines, was = ("line", "was") if n == 1 else ("lines", "were")
        print(f"warning: {n} {lines} longer than {MAX_LINE_BYTES} bytes {was} clamped",
              file=sys.stderr)


def _open_corpus(path: str) -> contextlib.AbstractContextManager[BinaryIO]:
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    return open(path, "rb")


def _open_binary_out(path: str | None, stack: contextlib.ExitStack) -> BinaryIO:
    """A binary output file, or standard output's buffer for None or "-"."""
    if path is None or path == "-":
        # Text already written to sys.stdout must come out first.
        sys.stdout.flush()
        stack.callback(sys.stdout.buffer.flush)
        return sys.stdout.buffer
    return stack.enter_context(open(path, "wb"))


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input-format", choices=("plain", "withcount"), default="plain",
                   help="corpus line format (default plain)")
    p.add_argument("--skip-empty", action="store_true",
                   help="drop empty passwords instead of counting them")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    p.add_argument("--threads", type=int, default=cpus or 1,
                   help="partitioned ingestion workers for file inputs")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty",
                   help="output rendering (default pretty)")


# --- hist --------------------------------------------------------------------

def _render_table_pretty(table: MultiplierTable, out: TextIO) -> None:
    headers = ("value", "frequency", "cumulative", "multiplier")
    body = [
        (
            str(row.value),
            str(row.frequency),
            str(row.cumulative),
            format_multiplier(row.multiplier) if row.multiplier is not None else "---",
        )
        for row in table.rows
    ]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in body), default=0))
        for i in range(4)
    ]
    out.write("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)) + "\n")
    for r in body:
        out.write("  ".join(r[i].rjust(widths[i]) for i in range(4)) + "\n")


def _cmd_hist(args) -> int:
    attr = AttributeId.from_token(args.attribute)
    hists = _corpus_histograms(args.file, _corpus_format(args), (attr,), args.threads)
    hist = hists[attr]
    if not hist.counts:
        raise UsageError("corpus is empty: nothing to tabulate")
    table = multiplier_table(hist)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(table))
    elif args.format == "json":
        doc = {"attribute": attr.value, "total": table.total, "rows": table_rows_json(table)}
        print(json.dumps(doc))
    else:
        _render_table_pretty(table, sys.stdout)
    return 0


# --- infer ---------------------------------------------------------------

def _parse_attr_list(spec: str) -> tuple[AttributeId, ...]:
    attrs = tuple(AttributeId.from_token(tok.strip()) for tok in spec.split(","))
    if len(set(attrs)) != len(attrs):
        raise UsageError("duplicate attribute in --attributes")
    return attrs


def _cmd_infer(args) -> int:
    attrs = _parse_attr_list(args.attributes) if args.attributes else ATTRIBUTES
    try:
        config = InferenceConfig(cutoff=args.cutoff, min_support=args.min_support)
    except ValueError as exc:
        raise UsageError(str(exc))
    hists = _corpus_histograms(args.file, _corpus_format(args), attrs, args.threads)
    policy = infer_policy(hists, config)
    total = max((h.total for h in hists.values()), default=0)
    if args.format == "json":
        print(json.dumps(policy_to_json(policy, config, total)))
    elif args.format == "csv":
        out = sys.stdout
        out.write("attribute,min,confidence,method\n")
        for rule in policy.rules:
            conf = format_multiplier(rule.confidence) if rule.confidence is not None else ""
            out.write(f"{rule.attribute.value},{rule.minimum},{conf},{rule.method}\n")
    else:
        if not policy.rules:
            print("no constraints inferred")
        else:
            for rule in policy.rules:
                if rule.confidence is not None:
                    detail = f"method={rule.method} mult={format_multiplier(rule.confidence)}"
                else:
                    detail = f"method={rule.method}"
                print(f"{rule.attribute.value} >= {rule.minimum}  ({detail})")
            if policy.name:
                print(f"name: {policy.name}")
    return 0


# --- filter --------------------------------------------------------------

def _cmd_filter(args) -> int:
    expr = parse_policy(args.policy)
    with contextlib.ExitStack() as stack:
        stream = stack.enter_context(_open_corpus(args.file))
        out = _open_binary_out(args.out, stack)
        reject = None if args.reject is None else stack.enter_context(open(args.reject, "wb"))
        stats = ReadStats()
        summary = filter_stream(stream, _corpus_format(args), expr, out, reject, stats)
    _warn_clamped(stats)
    # The summary must not interleave with records on standard output.
    to_stdout = args.out is None or args.out == "-"
    print(json.dumps(summary.to_json()), file=sys.stderr if to_stdout else sys.stdout)
    return 0


# --- plot ----------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 64, 20, 20, 52


def _svg_scatter(points: list[tuple[int, float]], attr_token: str, cutoff: float) -> str:
    x0, y0 = _SVG_ML, _SVG_H - _SVG_MB
    x1, y1 = _SVG_W - _SVG_MR, _SVG_MT
    if points:
        vmin = min(v for v, _ in points)
        vmax = max(v for v, _ in points)
        mmax = max(max(m for _, m in points), cutoff)
    else:
        vmin, vmax = 0, 1
        mmax = cutoff
    vspan = (vmax - vmin) or 1
    mtop = mmax * 1.1 or 1.0

    def sx(v: float) -> float:
        return x0 + (v - vmin) / vspan * (x1 - x0)

    def sy(m: float) -> float:
        return y0 - (m / mtop) * (y0 - y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_SVG_H - 14}" text-anchor="middle" '
        f'font-size="14">{attr_token}</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">mult</text>',
        f'<line x1="{x0}" y1="{sy(cutoff):.1f}" x2="{x1}" y2="{sy(cutoff):.1f}" '
        f'stroke="grey" stroke-dasharray="6 4"/>',
        f'<text x="{x1}" y="{sy(cutoff) - 4:.1f}" text-anchor="end" font-size="11" '
        f'fill="grey">cutoff {format_multiplier(cutoff)}</text>',
    ]
    for v, m in points:
        parts.append(f'<circle cx="{sx(v):.1f}" cy="{sy(m):.1f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(args) -> int:
    attr = AttributeId.from_token(args.attribute)
    hists = _corpus_histograms(args.file, _corpus_format(args), (attr,), args.threads)
    hist = hists[attr]
    if not hist.counts:
        raise UsageError("corpus is empty: nothing to plot")
    table = multiplier_table(hist)
    points = [
        (row.value, float(format_multiplier(row.multiplier)))
        for row in table.rows
        if row.multiplier is not None
    ]
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("value,multiplier\n")
        for v, m in points:
            f.write(f"{v},{format_multiplier(m)}\n")
    svg_path = os.path.splitext(args.out)[0] + ".svg"
    with open(svg_path, "w", encoding="utf-8") as f:
        f.write(_svg_scatter(points, attr.value, args.cutoff))
    print(f"wrote {args.out} and {svg_path}", file=sys.stderr)
    return 0


# --- synth -----------------------------------------------------------------

def _cmd_synth_generate(args) -> int:
    expr = parse_policy(args.policy)
    try:
        spec = GeneratorSpec(expr, args.count, args.noise, args.seed)
        records = generate(spec)
        with contextlib.ExitStack() as stack:
            out = _open_binary_out(args.out, stack)
            # Generated passwords are ASCII.
            out.writelines((rec.text + "\n").encode("ascii") for rec in records)
    except ValueError as exc:
        raise UsageError(str(exc))
    return 0


def _cmd_synth_pad(args) -> int:
    # Padding is filtering by the empty policy: every line is kept as read.
    fmt = _corpus_format(args)
    stats = ReadStats()
    with contextlib.ExitStack() as stack:
        out = _open_binary_out(args.out, stack)
        for path in (args.base, *args.pads):
            with _open_corpus(path) as stream:
                filter_stream(stream, fmt, PolicyExpr(), out, None, stats)
    _warn_clamped(stats)
    return 0


def _cmd_synth_corrupt(args) -> int:
    try:
        spec = CorruptionSpec(
            tokens=args.tokens,
            probability=args.probability,
            keep_empty_pieces=not args.drop_empty,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    stats = ReadStats()
    with contextlib.ExitStack() as stack:
        stream = stack.enter_context(_open_corpus(args.file))
        out = _open_binary_out(args.out, stack)
        added = corrupt_stream(stream, _corpus_format(args), spec, args.seed, out, stats)
    _warn_clamped(stats)
    print(json.dumps({"added_count": added}), file=sys.stderr)
    return 0


# --- eval ----------------------------------------------------------------

def _cmd_eval(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    exprs = [(spec, parse_policy(spec)) for spec in args.policy]
    for noise in args.noise:
        if not 0.0 <= noise < 1.0:
            raise UsageError(f"noise {noise} outside [0, 1)")
    rows = []
    index = 0
    for spec_text, expr in exprs:
        truth = expr.minima()
        for noise in args.noise:
            cell_seed = args.seed + index
            index += 1
            try:
                gen = generate(GeneratorSpec(expr, args.count, noise, cell_seed))
                hists = build_histograms(gen)
            except ValueError as exc:
                raise UsageError(f"cell {spec_text!r} noise {noise}: {exc}")
            inferred = infer_policy(hists)
            got = {r.attribute: r.minimum for r in inferred.rules}
            detail = " ".join(
                f"{r.attribute.value}>={r.minimum}:{r.method}" for r in inferred.rules
            )
            rows.append(
                {
                    "policy": spec_text,
                    "ground_truth": render_policy(expr),
                    "noise": noise,
                    "count": args.count,
                    "inferred": render_policy(policy_minima(inferred.minima())),
                    "name": inferred.name,
                    "exact_match": got == truth,
                    "detail": detail,
                }
            )
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        out = sys.stdout
        out.write("policy,noise,count,inferred,name,exact_match,detail\n")
        for r in rows:
            name = r["name"] or ""
            out.write(
                f"{r['policy']},{r['noise']},{r['count']},\"{r['inferred']}\","
                f"{name},{str(r['exact_match']).lower()},\"{r['detail']}\"\n"
            )
    else:
        for r in rows:
            flag = "ok " if r["exact_match"] else "MISMATCH"
            print(
                f"{flag} {r['policy']:<28} noise={r['noise']:<6} "
                f"inferred=[{r['inferred']}] {r['detail']}"
            )
        matched = sum(1 for r in rows if r["exact_match"])
        print(f"{matched}/{len(rows)} cells exact")
    return 0


# --- wiring -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pwpolicy", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hist", help="print the multiplier table for one attribute")
    p.add_argument("file", help="corpus path or - for stdin")
    p.add_argument("attribute", help="attribute token, e.g. length")
    _add_corpus_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("infer", help="infer the composition policy behind a corpus")
    p.add_argument("file", help="corpus path or - for stdin")
    p.add_argument("--attributes", help="comma-separated attribute subset")
    p.add_argument("--cutoff", type=float, default=2.0, help="outlier multiplier cutoff")
    p.add_argument("--min-support", type=int, default=10,
                   help="minimum cumulative count behind an outlier")
    _add_corpus_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("filter", help="split a corpus by policy compliance")
    p.add_argument("file", help="corpus path or - for stdin")
    p.add_argument("policy", help="policy spec, e.g. basic8 or 'length>=6,digits>=1'")
    p.add_argument("--out", help="compliant records path (default stdout)")
    p.add_argument("--reject", help="rejected records path (default: discard)")
    _add_corpus_flags(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("plot", help="write multiplier scatter data as CSV plus SVG")
    p.add_argument("file", help="corpus path or - for stdin")
    p.add_argument("attribute", help="attribute token, e.g. length")
    p.add_argument("out", help="CSV output path; SVG lands next to it")
    p.add_argument("--cutoff", type=float, default=2.0, help="reference line level")
    _add_corpus_flags(p)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("synth", help="synthetic corpus tools")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    sp = synth_sub.add_parser("generate", help="emit a corpus with known ground truth")
    sp.add_argument("--policy", required=True, help="ground-truth policy spec")
    sp.add_argument("--count", type=int, required=True, help="compliant record count")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="violating fraction of the final corpus")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_synth_generate)

    sp = synth_sub.add_parser("pad", help="concatenate a base corpus with padding corpora")
    sp.add_argument("base", help="base corpus path or -")
    sp.add_argument("pads", nargs="+", help="padding corpus paths")
    sp.add_argument("--out", help="output path (default stdout)")
    _add_corpus_flags(sp)
    sp.set_defaults(func=_cmd_synth_pad)

    sp = synth_sub.add_parser("corrupt", help="re-split records on separator characters")
    sp.add_argument("file", help="corpus path or -")
    sp.add_argument("--tokens", default=" ,", help="split characters (default space and comma)")
    sp.add_argument("--probability", type=float, default=1.0,
                    help="split chance per token-bearing record")
    sp.add_argument("--drop-empty", action="store_true",
                    help="discard empty fragments instead of keeping them")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output path (default stdout)")
    _add_corpus_flags(sp)
    sp.set_defaults(func=_cmd_synth_corrupt)

    p = sub.add_parser("eval", help="generate/infer recovery grid with exact-match report")
    p.add_argument("--policy", action="append", required=True,
                   help="ground-truth policy spec (repeatable)")
    p.add_argument("--noise", action="append", type=float, required=True,
                   help="noise fraction (repeatable)")
    p.add_argument("--count", type=int, default=1_000_000,
                   help="compliant records per cell")
    p.add_argument("--seed", type=int, default=0, help="base seed; cells offset from it")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse help/version exit through here
        code = exc.code
        return 0 if code is None else int(code)
    except (CorpusFormatError, PolicyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
