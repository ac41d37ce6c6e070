"""WMT-style SGM test sets: parsing, origin splitting, selective merging.

The SGM files shipped with WMT evaluation campaigns are SGML-like but not
reliably well-formed XML (unescaped ampersands, unquoted attribute values
in older sets), so parsing is done with a lenient byte-level tag scanner
rather than a strict XML parser.  Only ``<doc>`` and ``<seg>`` elements
are structurally meaningful; everything else is ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import AlignmentError, SgmParseError
from .halves import ALL, SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves

SIDES = ("src", "ref", "hyp")

_WRAPPER_TAG = {"src": "srcset", "ref": "refset", "hyp": "tstset"}
# Decoded in this order, so "&amp;lt;" becomes "&lt;"; encoded in reverse.
_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&"))

_TAG_RE = re.compile(rb"<(/?)(doc|seg)\b([^>]*)>", re.IGNORECASE)
_WRAPPER_RE = re.compile(rb"<(?:srcset|refset|tstset)\b([^>]*)>", re.IGNORECASE)
_SEG_CLOSE_RE = re.compile(rb"</seg\s*>", re.IGNORECASE)
_ATTR_RE = re.compile(rb"([A-Za-z_][\w.-]*)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))")


@dataclass(frozen=True)
class Segment:
    seg_id: str
    doc_id: str
    orig_lang: str
    text: str


@dataclass
class TestSet:
    """An aligned evaluation corpus whose segments carry origin metadata.

    Source and reference are aligned positionally (document order in the
    SGM files); construction verifies that their (doc_id, seg_id) sequences
    agree.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    src_lang: str
    tgt_lang: str
    source: list[Segment]
    reference: list[Segment]

    def __post_init__(self) -> None:
        if len(self.source) != len(self.reference):
            raise AlignmentError(
                f"source has {len(self.source)} segments, reference has {len(self.reference)}"
            )
        for i, (s, r) in enumerate(zip(self.source, self.reference)):
            if (s.doc_id, s.seg_id) != (r.doc_id, r.seg_id):
                raise AlignmentError(
                    f"source/reference disagree at index {i}: "
                    f"({s.doc_id!r}, {s.seg_id!r}) vs ({r.doc_id!r}, {r.seg_id!r})"
                )

    def __len__(self) -> int:
        return len(self.source)


def _decode_entities(text: str) -> str:
    for entity, char in _ENTITIES:
        text = text.replace(entity, char)
    return text


def _encode_entities(text: str) -> str:
    for entity, char in reversed(_ENTITIES):
        text = text.replace(char, entity)
    return text


def _decode(data: bytes, start: int, end: int) -> str:
    """``data[start:end]`` as UTF-8; an ``SgmParseError`` names the first byte that is not."""
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SgmParseError(f"not valid UTF-8 at byte {start + exc.start}") from None


def _parse_attrs(data: bytes, start: int, end: int) -> dict[str, str]:
    """The attributes in ``data[start:end]``.  ``_ATTR_RE`` matches ASCII
    names only, and a value is the last group it matched (quoted or not),
    with its character entities decoded as in segment text."""
    return {m.group(1).decode("ascii").lower():
            _decode_entities(_decode(data, *m.span(m.lastindex)))
            for m in _ATTR_RE.finditer(data, start, end)}


def parse_sgm(raw: bytes | str | IO[bytes], side: str = "src") -> list[Segment]:
    """Extract segments from a WMT-style SGM byte stream, in document order.

    ``orig_lang`` comes from the enclosing ``<doc>`` element's origlang
    attribute, normalized to lowercase, with "unknown" when absent.  The
    five standard character entities are decoded and surrounding whitespace
    is trimmed.  Input with no ``<seg>`` elements, mismatched ``<doc>``
    nesting, duplicate (doc_id, seg_id) keys, or a segment or attribute
    that is not UTF-8 raises SgmParseError, naming the byte where it can.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if isinstance(raw, str):
        data = raw.encode("utf-8")
    elif isinstance(raw, bytes):
        data = raw
    else:
        data = raw.read()

    segments: list[Segment] = []
    doc_attrs: dict[str, str] | None = None
    doc_open_at = -1
    pos = 0
    while (m := _TAG_RE.search(data, pos)) is not None:
        closing = m.group(1) == b"/"
        name = m.group(2).lower()
        if name == b"doc":
            if closing:
                if doc_attrs is None:
                    raise SgmParseError(f"</doc> without matching <doc> at byte {m.start()}")
                doc_attrs = None
            else:
                if doc_attrs is not None:
                    raise SgmParseError(
                        f"<doc> at byte {m.start()} nested inside <doc> opened at byte {doc_open_at}"
                    )
                doc_attrs = _parse_attrs(data, *m.span(3))
                doc_open_at = m.start()
            pos = m.end()
            continue
        # <seg>
        if closing:
            raise SgmParseError(f"</seg> without matching <seg> at byte {m.start()}")
        close = _SEG_CLOSE_RE.search(data, m.end())
        if close is None:
            raise SgmParseError(f"<seg> at byte {m.start()} is never closed")
        attrs = _parse_attrs(data, *m.span(3))
        seg_id = attrs.get("id", "").strip()
        if not seg_id:
            raise SgmParseError(f"<seg> without id attribute at byte {m.start()}")
        if doc_attrs is None:
            doc_id, orig_lang = "", "unknown"
        else:
            doc_id = doc_attrs.get("docid", "")
            orig_lang = doc_attrs.get("origlang", "").strip().lower() or "unknown"
        text = _decode_entities(_decode(data, m.end(), close.start())).strip()
        segments.append(Segment(seg_id=seg_id, doc_id=doc_id, orig_lang=orig_lang, text=text))
        pos = close.end()

    if doc_attrs is not None:
        raise SgmParseError(f"<doc> opened at byte {doc_open_at} is never closed")
    if not segments:
        raise SgmParseError(f"no <seg> elements found (scanned {len(data)} bytes from byte 0)")

    seen: set[tuple[str, str]] = set()
    for seg in segments:
        key = (seg.doc_id, seg.seg_id)
        if key in seen:
            raise SgmParseError(f"duplicate (doc_id, seg_id) = {key!r}")
        seen.add(key)
    return segments


def wrapper_attrs(raw: bytes) -> dict[str, str] | None:
    """The attributes of the first ``<srcset>``, ``<refset>`` or ``<tstset>``
    element of an SGM byte string (setid, srclang, ...), or None if it has none."""
    m = _WRAPPER_RE.search(raw)
    return None if m is None else _parse_attrs(raw, *m.span(1))


def serialize_sgm(segments: Sequence[Segment], side: str = "src",
                  attrs: dict[str, str] | None = None) -> str:
    """Render segments as canonical SGM with quoted attributes.

    Consecutive segments sharing (doc_id, orig_lang) are grouped into one
    ``<doc>``; an "unknown" origin is expressed by omitting the origlang
    attribute, so parse -> serialize -> parse round-trips exactly.  The
    wrapper element carries ``attrs`` (see ``wrapper_attrs``), in order,
    or else ``setid="set"``.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    wrapper = _WRAPPER_TAG[side]
    attrs = {"setid": "set"} if attrs is None else attrs
    out = [f"<{wrapper}" + "".join(f' {k}="{_encode_entities(v)}"' for k, v in attrs.items()) + ">"]
    open_doc: tuple[str, str] | None = None
    for seg in segments:
        doc_key = (seg.doc_id, seg.orig_lang)
        if doc_key != open_doc:
            if open_doc is not None:
                out.append("</doc>")
            doc_attrs = f' docid="{_encode_entities(seg.doc_id)}"'
            if seg.orig_lang != "unknown":
                doc_attrs += f' origlang="{_encode_entities(seg.orig_lang)}"'
            out.append(f"<doc{doc_attrs}>")
            open_doc = doc_key
        out.append(f'<seg id="{_encode_entities(seg.seg_id)}">{_encode_entities(seg.text)}</seg>')
    if open_doc is not None:
        out.append("</doc>")
    out.append(f"</{wrapper}>")
    return "\n".join(out) + "\n"


def segments_from_lines(
    lines: Sequence[str],
    origins: Sequence[str] | None = None,
    doc_id: str = "plain",
) -> list[Segment]:
    """Companion loader for plain one-sentence-per-line test sets.

    ``origins`` is the sidecar format: one language code per line, aligned
    by line number; None marks every segment's origin unknown.
    """
    if origins is not None and len(origins) != len(lines):
        raise AlignmentError(f"{len(lines)} lines but {len(origins)} origin labels")
    segments = []
    for i, line in enumerate(lines):
        orig = origins[i].strip().lower() if origins is not None else ""
        segments.append(
            Segment(seg_id=str(i + 1), doc_id=doc_id, orig_lang=orig or "unknown", text=line)
        )
    return segments


def split_by_origin(ts: TestSet) -> SplitHalves:
    """Partition segment indices by the original language of the source side.

    Origins matching neither ts.src_lang nor ts.tgt_lang are collected as
    unknown rather than guessed into a half.
    """
    source_original = []
    target_original = []
    unknown = []
    for i, seg in enumerate(ts.source):
        if seg.orig_lang == ts.tgt_lang:
            target_original.append(i)
        elif seg.orig_lang == ts.src_lang:
            source_original.append(i)
        else:
            unknown.append(i)
    return SplitHalves(tuple(source_original), tuple(target_original), tuple(unknown))


def merge_selective(
    base_hyp: Sequence[str],
    edited_hyp: Sequence[str],
    halves: SplitHalves,
    mode: str = TARGET_ORIGINAL_ONLY,
) -> list[str]:
    """Take edited lines everywhere (mode ``ALL``) or only on the
    target-original half (mode ``TARGET_ORIGINAL_ONLY``), keeping base lines
    byte-identical elsewhere.  Order is preserved, and ``halves`` must index
    the lines (``SplitHalves.check_range``) under either mode."""
    if mode not in SCOPES:
        raise ValueError(f"unknown merge mode {mode!r}")
    if len(base_hyp) != len(edited_hyp):
        raise ValueError(f"length mismatch: base {len(base_hyp)} vs edited {len(edited_hyp)}")
    halves.check_range(len(base_hyp))
    if mode == ALL:
        return list(edited_hyp)
    merged = list(base_hyp)
    for i in halves.target_original:
        merged[i] = edited_hyp[i]
    return merged
