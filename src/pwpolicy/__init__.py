"""Password composition policy inference from leaked credential corpora.

The library streams password records, histograms structural attributes
(length, character-class counts, letter runs), and flags the cumulative
frequency jumps that betray a site's enforcement rules. A synthetic
generator produces corpora with known ground truth for validating the
inference end to end.
"""

from .attributes import ATTRIBUTES, AttributeId, extract_all
from .corpus import (
    CorpusFormat,
    CorpusFormatError,
    CorpusReadError,
    PasswordRecord,
    ReadStats,
    read_records,
)
from .histogram import (
    Histogram,
    MultiplierRow,
    MultiplierTable,
    build_histograms,
    merge,
    multiplier_table,
    scan_file,
)
from .inference import (
    InferenceConfig,
    InferredRule,
    Policy,
    infer_policy,
    infer_rule,
    policy_to_json,
)
from .policy import (
    FilterSummary,
    PolicyExpr,
    PolicyParseError,
    complies,
    filter_corpus,
    parse_policy,
    render_policy,
)
from .synth import CorruptionSpec, GeneratorSpec, corrupt, generate, pad

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTES",
    "AttributeId",
    "CorpusFormat",
    "CorpusFormatError",
    "CorpusReadError",
    "CorruptionSpec",
    "FilterSummary",
    "GeneratorSpec",
    "Histogram",
    "InferenceConfig",
    "InferredRule",
    "MultiplierRow",
    "MultiplierTable",
    "Policy",
    "PolicyExpr",
    "PolicyParseError",
    "PasswordRecord",
    "ReadStats",
    "build_histograms",
    "complies",
    "corrupt",
    "extract_all",
    "filter_corpus",
    "generate",
    "infer_policy",
    "infer_rule",
    "merge",
    "multiplier_table",
    "pad",
    "parse_policy",
    "policy_to_json",
    "read_records",
    "scan_file",
    "__version__",
]
