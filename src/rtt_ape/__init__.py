"""rtt-ape: round-trip translation data pipelines, automatic post-editing
application, and origin-split BLEU evaluation.

The public names below load their submodule on first use, so importing the
package (as every CLI start does) costs only this file."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backends": ("BackendSpec", "ChannelConfig", "channel_apply", "translate_batch"),
    "corpus": ("FilterConfig", "SentencePair", "bitext_filter", "dedup", "mono_filter",
               "sample_lines"),
    "errors": ("AlignmentError", "BackendError", "DataError", "SgmParseError"),
    "pipeline": ("ApeMode", "RttPair", "apply_ape", "generate_rtt", "iter_rtt",
                 "make_training_pairs"),
    "scoring": ("BleuConfig", "BleuScore", "NgramStats", "corpus_bleu", "ngram_stats",
                "signature", "tokenize_intl"),
    "halves": ("SplitHalves",),
    "testset": ("Segment", "TestSet", "merge_selective", "parse_sgm", "segments_from_lines",
                "serialize_sgm", "split_by_origin"),
    "analysis": ("AnalysisReport", "humaneval_aggregate", "humaneval_make_tasks",
                 "rtt_quality_report", "split_score_table", "vocab_size"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
