"""rtt-ape: round-trip translation data pipelines, automatic post-editing
application, and origin-split BLEU evaluation."""

__version__ = "0.1.0"

from .backends import BackendSpec, ChannelConfig, channel_apply, toy_denoiser, translate_batch
from .corpus import (
    FilterConfig,
    SentencePair,
    bitext_filter,
    dedup,
    mono_filter,
    sample_lines,
)
from .errors import AlignmentError, BackendError, DataError, SgmParseError
from .pipeline import ApeMode, RttPair, apply_ape, generate_rtt, iter_rtt, make_training_pairs
from .scoring import (
    BleuConfig,
    BleuScore,
    NgramStats,
    corpus_bleu,
    ngram_stats,
    signature,
    tokenize_intl,
)
from .testset import (
    Segment,
    SplitHalves,
    TestSet,
    merge_selective,
    parse_sgm,
    segments_from_lines,
    serialize_sgm,
    split_by_origin,
)
from .analysis import (
    AnalysisReport,
    humaneval_aggregate,
    humaneval_make_tasks,
    rtt_quality_report,
    split_score_table,
    vocab_size,
)
