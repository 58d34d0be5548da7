import pwpolicy


def test_public_names_are_pinned():
    # A name is public when the CLI, perfbench/ or an acceptance criterion
    # uses it (README "Library use"); a change to this list is an API change.
    assert sorted(pwpolicy.__all__) == [
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
        "PasswordRecord",
        "Policy",
        "PolicyExpr",
        "PolicyParseError",
        "ReadStats",
        "__version__",
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
    ]
    assert all(hasattr(pwpolicy, name) for name in pwpolicy.__all__)
