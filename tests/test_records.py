"""The library's records: one ``NamedTuple`` declaration each, or a
``__slots__`` class where mutable or sized.  A record that checks its
values rejects a bad one however it is built: positionally, by keyword, by
``_make`` or by ``_replace``."""

from __future__ import annotations

import pickle
import re
import types

import pytest

from rtt_ape.analysis import AnalysisReport
from rtt_ape.backends import BackendSpec, ChannelConfig
from rtt_ape.corpus import FilterConfig, FilterReport, SentencePair
from rtt_ape.halves import SplitHalves
from rtt_ape.pipeline import ApeMode, ChangeReport, RttPair
from rtt_ape.scoring import BleuConfig, BleuScore, NgramStats, corpus_bleu
from rtt_ape.testset import Segment, TestSet

RECORDS = [AnalysisReport, ApeMode, BackendSpec, BleuConfig, BleuScore, ChangeReport,
           ChannelConfig, FilterConfig, FilterReport, NgramStats, RttPair, Segment, SentencePair,
           SplitHalves, TestSet]
# One valid record of each class that checks its values.
CHECKED_RECORDS = [ApeMode(), BackendSpec.identity(), ChannelConfig(lexicon={"a": "b"}),
                   FilterConfig(), SplitHalves((0,), (1,))]

# A valid record, the field given a bad value, that value, and the error's text.
CHECKED = {
    "negative index": (SplitHalves((0,), (1,)), "target_original", (-1,),
                       "target_original: index -1 is not a non-negative integer"),
    "index in two groups": (SplitHalves((0,), (1,)), "unknown", (0,),
                            "unknown: index 0 is also in an earlier group"),
    "zero cap": (FilterConfig(), "max_tokens", 0, "all caps must be positive"),
    "ratio below 1": (FilterConfig(), "max_len_ratio", 0.5, "max_len_ratio must be >= 1.0, got 0.5"),
    "probability above 1": (ChannelConfig(), "drop_prob", 1.5,
                            "drop_prob and swap_prob must be in [0, 1], got 1.5 and 0.0"),
    "lexicon phrase": (ChannelConfig(), "lexicon", {"a b": "c"},
                       "lexicon entries must be single tokens, got 'a b' -> 'c'"),
    "unknown kind": (BackendSpec.identity(), "kind", "nope", "unknown backend kind 'nope'"),
    "zero batch size": (BackendSpec.identity(), "batch_size", 0,
                        "batch_size must be positive and retries 0 or more, got 0 and 2"),
    "channel without noise": (BackendSpec.toy_denoiser(ChannelConfig()), "channel",
                              ChannelConfig(swap_prob=0.5), "toy_denoiser adds no noise"),
    "unknown scope": (ApeMode(), "scope", "some", "scope must be one of"),
    "no iteration": (ApeMode(), "iterations", 0, "iterations must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(CHECKED))
def test_a_checked_record_rejects_a_bad_value_however_built(case):
    valid, field, bad, message = CHECKED[case]
    cls = type(valid)
    values = [bad if name == field else value for name, value in zip(cls._fields, valid)]
    builds = {"positional": lambda: cls(*values),
              "keyword": lambda: cls(**{**valid._asdict(), field: bad}),
              "_make": lambda: cls._make(values),
              "_replace": lambda: valid._replace(**{field: bad})}
    for how, build in builds.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
            pytest.fail(f"{how} built {case!r}")
    assert valid._replace() == valid


def test_every_record_keeps_no_instance_dict():
    """A ``NamedTuple`` and a slots class keep their fields in the object
    itself; a ``__dict__`` would mean a record built some other way."""
    assert [cls.__name__ for cls in RECORDS if cls.__dictoffset__] == []


def test_the_default_lexicon_is_shared_read_only_and_copied_out():
    a, b = ChannelConfig(), ChannelConfig()
    with pytest.raises(TypeError):
        a.lexicon["x"] = "y"  # type: ignore[index]
    assert b.lexicon == {}
    channel = BackendSpec.toy_channel(a).as_dict()["channel"]
    assert channel == {"lexicon": {}, "drop_prob": 0.0, "swap_prob": 0.0, "seed": 0}
    assert type(channel["lexicon"]) is dict


@pytest.mark.parametrize("valid", CHECKED_RECORDS, ids=lambda valid: type(valid).__name__)
def test_a_checked_record_is_its_declared_class(valid):
    """A wrong argument count names the class the caller used, on every
    Python, and so do ``repr`` and pickling."""
    cls = type(valid)
    builds = [lambda: cls(*range(len(cls._fields) + 1)), lambda: cls(nope=1)]
    if len(cls._field_defaults) < len(cls._fields):
        builds.append(cls)  # a required field left out
    for build in builds:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) "):
            build()
    assert repr(valid).startswith(f"{cls.__name__}(")
    assert type(pickle.loads(pickle.dumps(valid))) is cls
    assert pickle.loads(pickle.dumps(valid)) == valid


def test_an_analysis_report_is_immutable_and_derives_its_precisions():
    bleu = corpus_bleu([("a b c d e", "a b c d f")])
    report = AnalysisReport(rtt_bleu=bleu)
    assert "precision_breakdown" not in AnalysisReport._fields
    assert report.precision_breakdown == bleu.precisions
    assert report.as_dict()["precision_breakdown"] == list(bleu.precisions)
    assert AnalysisReport().precision_breakdown is None
    with pytest.raises(AttributeError):
        report.split_scores = {}  # type: ignore[misc]
    empty = AnalysisReport()
    assert all(type(m) is types.MappingProxyType
               for m in (empty.vocab_sizes, empty.split_scores, empty.metadata))
