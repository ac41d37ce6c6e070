"""SGM parsing, origin splitting, and selective merging."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtt_ape.errors import AlignmentError, DataError, SgmParseError
from rtt_ape.testset import (
    Segment,
    SplitHalves,
    TestSet,
    merge_selective,
    parse_sgm,
    segments_from_lines,
    serialize_sgm,
    split_by_origin,
    wrapper_attrs,
)

DATA = Path(__file__).parent / "data"


class TestParseSgm:
    def test_single_segment(self):
        segs = parse_sgm(b'<doc docid="d1" origlang="de"><seg id="1">Guten Tag</seg></doc>')
        assert segs == [Segment(seg_id="1", doc_id="d1", orig_lang="de", text="Guten Tag")]

    def test_entities_and_missing_origlang(self):
        segs = parse_sgm(b'<doc docid="d2"><seg id="1">a &amp; b</seg></doc>')
        assert segs[0].text == "a & b"
        assert segs[0].orig_lang == "unknown"

    def test_all_five_entities(self):
        raw = b'<doc docid="d"><seg id="1">&lt;x&gt; &quot;y&quot; &apos;z&apos; &amp;</seg></doc>'
        assert parse_sgm(raw)[0].text == "<x> \"y\" 'z' &"

    def test_unquoted_attributes(self):
        segs = parse_sgm(b"<doc docid=r.77 origlang=de><seg id=3>Text here</seg></doc>")
        assert segs[0].doc_id == "r.77"
        assert segs[0].orig_lang == "de"
        assert segs[0].seg_id == "3"

    def test_raw_ampersand_survives(self):
        segs = parse_sgm(b'<doc docid="d"><seg id="1">AT&T works</seg></doc>')
        assert segs[0].text == "AT&T works"

    def test_whitespace_trimmed(self):
        segs = parse_sgm(b'<doc docid="d"><seg id="1">  padded  </seg></doc>')
        assert segs[0].text == "padded"

    def test_origlang_normalized_lowercase(self):
        segs = parse_sgm(b'<doc docid="d" origlang="DE"><seg id="1">x</seg></doc>')
        assert segs[0].orig_lang == "de"

    def test_no_segments_is_parse_error_naming_offset(self):
        with pytest.raises(SgmParseError, match=r"byte"):
            parse_sgm(b"<srcset><doc docid=\"d\"></doc></srcset>")

    def test_nested_doc_is_error(self):
        raw = b'<doc docid="a"><doc docid="b"><seg id="1">x</seg></doc></doc>'
        with pytest.raises(SgmParseError, match=r"nested"):
            parse_sgm(raw)

    def test_unbalanced_close_is_error(self):
        with pytest.raises(SgmParseError):
            parse_sgm(b'</doc><doc docid="a"><seg id="1">x</seg></doc>')

    def test_unterminated_seg_is_error(self):
        with pytest.raises(SgmParseError, match=r"never closed"):
            parse_sgm(b'<doc docid="a"><seg id="1">x</doc>')

    def test_duplicate_ids_are_an_error(self):
        raw = b'<doc docid="a"><seg id="1">x</seg><seg id="1">y</seg></doc>'
        with pytest.raises(SgmParseError, match="duplicate"):
            parse_sgm(raw)

    @pytest.mark.parametrize("raw", [
        pytest.param(b'<doc docid="d"><seg id="1">caf\xe9 ok</seg></doc>', id="segment"),
        pytest.param(b'<doc docid="d\xe9"><seg id="1">ok</seg></doc>', id="docid"),
        pytest.param(b'<doc docid="d"><seg id="\xe9">ok</seg></doc>', id="seg-id"),
    ])
    def test_bytes_that_are_not_utf8_are_an_error_naming_the_byte(self, raw):
        with pytest.raises(SgmParseError) as raised:
            parse_sgm(raw)
        assert str(raised.value) == f"not valid UTF-8 at byte {raw.index(0xE9)}"

    def test_mini_fixture(self):
        with open(DATA / "mini_ende_src.sgm", "rb") as fh:
            segs = parse_sgm(fh)
        assert len(segs) == 20
        assert segs[0].doc_id == "tagesblatt.de.101"
        assert {s.orig_lang for s in segs} == {"de", "en", "cs", "unknown"}


SEG_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    max_size=40,
)
SEG_IDS = st.text(alphabet="abcdefghij0123456789.-", min_size=1, max_size=8)


@st.composite
def segment_lists(draw):
    n_docs = draw(st.integers(1, 4))
    segments = []
    used_docs = set()
    for d in range(n_docs):
        doc_id = f"doc-{d}-" + draw(SEG_IDS)
        if doc_id in used_docs:
            continue
        used_docs.add(doc_id)
        orig = draw(st.sampled_from(["de", "en", "cs", "unknown"]))
        n_segs = draw(st.integers(1, 4))
        for s in range(n_segs):
            text = draw(SEG_TEXT)
            segments.append(
                Segment(
                    seg_id=str(s + 1),
                    doc_id=doc_id,
                    orig_lang=orig,
                    text=" ".join(text.split()),
                )
            )
    return segments


class TestRoundTrip:
    @given(segment_lists())
    def test_parse_serialize_parse(self, segments):
        rendered = serialize_sgm(segments, side="ref")
        assert parse_sgm(rendered.encode("utf-8"), side="ref") == segments

    def test_entity_reencoding(self):
        segments = [Segment("1", "d", "de", 'a & b < c > "d" \'e\'')]
        rendered = serialize_sgm(segments)
        assert "&amp;" in rendered
        assert parse_sgm(rendered.encode("utf-8")) == segments


class TestWrapperAttributes:
    def test_serialize_keeps_the_attributes_in_order(self):
        raw = (DATA / "mini_ende_src.sgm").read_bytes()
        attrs = wrapper_attrs(raw)
        assert attrs == {"setid": "mini-ende", "srclang": "en", "trglang": "de"}
        rendered = serialize_sgm(parse_sgm(raw), "src", attrs)
        assert rendered.startswith('<srcset setid="mini-ende" srclang="en" trglang="de">\n')
        assert wrapper_attrs(rendered.encode("utf-8")) == attrs

    @pytest.mark.parametrize("raw, opening", [
        (b'<doc docid="d"><seg id="1">x</seg></doc>', '<tstset setid="set">'),
        (b'<TSTSET><doc docid="d"><seg id="1">x</seg></doc></TSTSET>', "<tstset>"),
        (b"<refset setid='a\"b' SrcLang=en>", '<tstset setid="a&quot;b" srclang="en">'),
    ])
    def test_no_wrapper_gives_the_default_and_values_are_quoted(self, raw, opening):
        segments = [Segment("1", "d", "unknown", "x")]
        rendered = serialize_sgm(segments, "hyp", wrapper_attrs(raw))
        assert rendered.split("\n")[0] == opening

    def test_attributes_with_entities_survive_every_round_trip(self):
        raw = (b'<srcset setid="R&amp;D &lt;1&gt;"><doc docid="a&amp;b" origlang="de">'
               b'<seg id="1&amp;2">x</seg></doc></srcset>')
        segments, attrs = parse_sgm(raw), wrapper_attrs(raw)
        assert attrs == {"setid": "R&D <1>"}
        assert segments == [Segment("1&2", "a&b", "de", "x")]
        rendered = serialize_sgm(segments, "src", attrs).encode("utf-8")
        assert (parse_sgm(rendered), wrapper_attrs(rendered)) == (segments, attrs)
        assert serialize_sgm(parse_sgm(rendered), "src", wrapper_attrs(rendered)) == (
            rendered.decode("utf-8"))

    def test_an_attribute_that_is_not_utf8_names_its_byte(self):
        with pytest.raises(SgmParseError, match="not valid UTF-8 at byte 15"):
            wrapper_attrs(b'<srcset setid="\xff">')


class TestSplitByOrigin:
    def _ts(self, origins, src="en", tgt="de"):
        segs = [
            Segment(seg_id=str(i + 1), doc_id="d", orig_lang=o, text=f"s{i}")
            for i, o in enumerate(origins)
        ]
        return TestSet("t", src, tgt, segs, segs)

    def test_alternating(self):
        halves = split_by_origin(self._ts(["en", "de", "en", "de"]))
        assert halves.source_original == (0, 2)
        assert halves.target_original == (1, 3)
        assert halves.unknown == ()

    def test_all_target_original(self):
        halves = split_by_origin(self._ts(["de", "de", "de"]))
        assert halves.target_original == (0, 1, 2)
        assert halves.source_original == ()

    def test_third_language_goes_to_unknown(self):
        halves = split_by_origin(self._ts(["en", "cs", "unknown", "de"]))
        assert halves.source_original == (0,)
        assert halves.target_original == (3,)
        assert halves.unknown == (1, 2)

    @given(st.lists(st.sampled_from(["en", "de", "cs", "unknown"]), min_size=1, max_size=30))
    def test_partition_property(self, origins):
        halves = split_by_origin(self._ts(origins))
        combined = sorted(halves.source_original + halves.target_original + halves.unknown)
        assert combined == list(range(len(origins)))
        assert not set(halves.source_original) & set(halves.target_original)


class TestSplitHalvesValidation:
    @pytest.mark.parametrize("bad", [-1, "x", True, 1.0, None])
    def test_an_index_must_be_a_non_negative_int(self, bad):
        with pytest.raises(ValueError, match=rf"^target_original: index {bad!r} is not"):
            SplitHalves(source_original=(0,), target_original=(1, bad))

    @pytest.mark.parametrize("group", ["target_original", "unknown"])
    def test_groups_must_be_disjoint(self, group):
        with pytest.raises(ValueError, match=rf"^{group}: index 2 is also in an earlier group"):
            SplitHalves(**{"source_original": (0, 2), group: (2, 3)})

    def test_valid_halves_and_empty_groups(self):
        assert SplitHalves(()).target_original == ()
        assert SplitHalves((0, 5), (1,), (2, 1000)).unknown == (2, 1000)

    @pytest.mark.parametrize("group", ["source_original", "target_original", "unknown"])
    def test_every_group_is_range_checked(self, group):
        halves = SplitHalves(**{"source_original": (1,), group: (0, 4)})
        halves.check_range(5)
        with pytest.raises(ValueError, match=rf"^{group}: split index 4 out of range for 4 lines"):
            halves.check_range(4)


class TestSplitFile:
    HALVES = SplitHalves((1, 3), (0, 2), (4,))

    def test_what_split_writes_reads_back(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(self.HALVES.payload(5, "en", "de")))
        assert list(json.loads(path.read_text())) == [
            "n", "src_lang", "tgt_lang", "source_original", "target_original", "unknown"]
        assert SplitHalves.read(path, 5) == self.HALVES

    def test_n_and_unknown_may_be_absent(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"source_original": [1], "target_original": [0]}')
        assert SplitHalves.read(path, 2) == SplitHalves((1,), (0,))

    @pytest.mark.parametrize("text, message", [
        ("[0, 1]", "expected a JSON object"),
        ('{"source_original": [0]}', "'target_original'"),
        ('{"source_original": 0, "target_original": []}', "not iterable"),
        ("{", "Expecting property name"),
        ('{"n": 5, "source_original": [0], "target_original": [1]}',
         "n: written for 5 lines, used with 2"),
    ])
    def test_a_bad_file_is_a_data_error_naming_it(self, tmp_path, text, message):
        path = tmp_path / "split.json"
        path.write_text(text)
        with pytest.raises(DataError, match=rf"^bad split file {str(path)!r}: ") as exc:
            SplitHalves.read(path, 2)
        assert message in str(exc.value)


class TestMergeSelective:
    HALVES = SplitHalves(source_original=(0, 2), target_original=(1, 3))

    def test_selective(self):
        merged = merge_selective(
            ["b0", "b1", "b2", "b3"], ["e0", "e1", "e2", "e3"], self.HALVES
        )
        assert merged == ["b0", "e1", "b2", "e3"]

    def test_all_mode(self):
        merged = merge_selective(
            ["b0", "b1", "b2", "b3"], ["e0", "e1", "e2", "e3"], self.HALVES, mode="all"
        )
        assert merged == ["e0", "e1", "e2", "e3"]

    def test_identity_when_edited_equals_base(self):
        base = ["x", "y", "z", "w"]
        for mode in ("all", "target_original_only"):
            assert merge_selective(base, list(base), self.HALVES, mode) == base

    def test_source_original_lines_untouched(self):
        base = ["b0", "b1", "b2", "b3"]
        merged = merge_selective(base, ["e0", "e1", "e2", "e3"], self.HALVES)
        for i in self.HALVES.source_original:
            assert merged[i] is base[i]

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            merge_selective(["a"], ["a", "b"], self.HALVES)

    def test_halves_must_fit_in_every_mode(self):
        for mode in ("target_original_only", "all"):
            with pytest.raises(ValueError, match="source_original: split index 2 out of range"):
                merge_selective(["a", "b"], ["c", "d"], self.HALVES, mode)

    def test_unknown_mode_is_error(self):
        with pytest.raises(ValueError):
            merge_selective(["a"], ["a"], self.HALVES, mode="some")


class TestTestSetValidation:
    def test_length_mismatch(self):
        a = [Segment("1", "d", "de", "x")]
        with pytest.raises(AlignmentError):
            TestSet("t", "en", "de", a, [])

    def test_id_mismatch(self):
        a = [Segment("1", "d", "de", "x")]
        b = [Segment("2", "d", "de", "y")]
        with pytest.raises(AlignmentError, match="disagree at index 0"):
            TestSet("t", "en", "de", a, b)


class TestPlainLoader:
    def test_with_origin_labels(self):
        segs = segments_from_lines(["one", "two"], ["de", "EN"])
        assert [s.orig_lang for s in segs] == ["de", "en"]
        assert [s.seg_id for s in segs] == ["1", "2"]

    def test_without_labels(self):
        segs = segments_from_lines(["one"])
        assert segs[0].orig_lang == "unknown"

    def test_label_count_mismatch(self):
        with pytest.raises(AlignmentError):
            segments_from_lines(["one", "two"], ["de"])
