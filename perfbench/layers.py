"""Traced, in-process calls into each pwpolicy module (the per-layer run).

Imported only by a run with ``--trace 1``, after the checkout's ``src``
directory has been put first on sys.path.
"""

from __future__ import annotations

import itertools

from pwpolicy.attributes import extract_all
from pwpolicy.corpus import CorpusFormat, read_records
from pwpolicy.histogram import build_histograms, merge, scan_file
from pwpolicy.inference import infer_policy
from pwpolicy.policy import filter_corpus, parse_policy
from pwpolicy.synth import GeneratorSpec, generate

# Records held in memory at once for the in-memory layers (extract, build,
# filter); a few tens of MiB of PasswordRecords.
CHUNK_RECORDS = 25_000


def corpus_layers(tracer, path: str, kind: str, policy: str) -> tuple[dict, dict]:
    """Every file-based layer over one corpus file, each under its own span.

    Returns the histograms of scan_file at threads 1 and 2, as
    {attribute token: (counts, total)}, for checking.
    """
    fmt = CorpusFormat(kind)
    with tracer.span("corpus.read"):
        with open(path, "rb") as f:
            for _ in read_records(f, fmt):
                pass
    expr = parse_policy(policy)
    merged = None
    with tracer.span("bench.in_memory"):
        with open(path, "rb") as f:
            records = read_records(f, fmt)
            while chunk := list(itertools.islice(records, CHUNK_RECORDS)):
                with tracer.span("attributes.extract"):
                    for rec in chunk:
                        extract_all(rec.text)
                with tracer.span("histogram.build"):
                    part = build_histograms(chunk)
                with tracer.span("policy.filter"):
                    filter_corpus(chunk, expr)
                if merged is None:
                    merged = part
                else:
                    with tracer.span("histogram.merge"):
                        merged = {a: merge(merged[a], part[a]) for a in merged}
    with tracer.span("histogram.scan_t1"):
        t1 = scan_file(path, fmt, threads=1)
    with tracer.span("histogram.scan_t2"):
        t2 = scan_file(path, fmt, threads=2)
    with tracer.span("inference.infer"):
        infer_policy(t2)
    return _plain(t1), _plain(t2)


def _plain(hists) -> dict:
    return {attr.value: (h.counts, h.total) for attr, h in hists.items()}


def generate_to_file(tracer, span_name: str, policy: str, count: int, noise: float,
                     seed: int, path: str | None) -> int:
    """Drain synth.generate under a span; write the records to path if given."""
    spec = GeneratorSpec(parse_policy(policy), count, noise, seed)
    with tracer.span(span_name):
        records = list(generate(spec))
    if path is not None:
        with tracer.span("bench.write"), open(path, "w", encoding="utf-8") as f:
            f.writelines(rec.text + "\n" for rec in records)
    return len(records)
