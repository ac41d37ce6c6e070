"""Seeded synthetic inputs for the benchmark workloads.

Every function here is a pure function of its seed: the same seed gives
byte-identical files.  The text imitates en-de news: German words with
umlauts and ß, capitalised nouns, „…“ quotes, en dashes, decimal commas
and thousands separators, so that the tokenizer meets non-ASCII letters
and Unicode punctuation at a realistic share.

The noise lexicon is many-to-one (two natural words collapse onto one
generic word) and the denoiser maps each generic word back to one of the
two, as in the paper's translationese model.
"""

from __future__ import annotations

import gzip
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ga ge gi go ka ke ki ko la le li lo "
    "ma me mi mo na ne ni no ra re ri ro sa se si so ta te ti to wa we wi "
    "bä bö bü dä dö dü fä fö fü gä gö gü kä kö kü lä lö lü mä mö mü nä nö nü "
    "rä rö rü sä sö sü tä tö tü schä schö schü ße stra spie zei"
).split()

GERMAN = (
    "der die das und in den von zu mit sich des auf für ist im dem nicht ein eine "
    "als auch es an werden aus er hat dass sie nach wird bei einer um am sind noch "
    "wie einem über einen so zum war haben nur oder aber vor zur bis mehr durch man "
    "sein wurde sei prozent hatte kann gegen vom können schon wenn habe seine ihre "
    "dann unter wir soll ich eines jahr zwei jahren diese dieser wieder keine uhr "
    "seiner worden will zwischen immer millionen was sagte gibt alle während "
    "müssen größte Bürger Straße Gemeinde Größe Ärzte Übersicht Öffentlichkeit "
    "Maßnahmen Bundesregierung Kanzlerin Mädchen Flüchtlinge Schüler Grüne Häuser "
    "Regierung Polizei Unternehmen Stadt Land Woche Montag Dienstag Geschäftsführer "
    "für über können müssen würde hätte später früher natürlich Ergebnis Zukunft "
    "Menschen Kinder Frauen Männer Verhältnis Gespräch Lösung Änderung Wählerinnen"
).split()

ENGLISH = (
    "the of and to in a is that for it as was with be by on not he this are or his "
    "from at which but have an they you were her she there been one all we their "
    "has would when if so no will can more about said its some could into them "
    "than other people after first years two government police city company week "
    "Monday Tuesday chancellor citizens refugees students report market minister"
).split()

# (designated natural word, synonym, generic word the channel collapses both onto)
SYNONYM_GROUPS = [
    ("erhält", "empfängt", "bekommt"),
    ("beginnt", "startet", "fängt"),
    ("Gespräche", "Unterredungen", "Diskussionen"),
    ("rasch", "zügig", "schnell"),
    ("äußerte", "erklärte", "sagte"),
    ("Behörde", "Dienststelle", "Amt"),
    ("Straßenbahn", "Tram", "Bahn"),
    ("Bürgermeisterin", "Stadtoberhaupt", "Chefin"),
    ("großartig", "prächtig", "gut"),
    ("möglicherweise", "vielleicht", "eventuell"),
    ("Übereinkunft", "Vereinbarung", "Abmachung"),
    ("Höhepunkt", "Gipfel", "Spitze"),
    ("Gebäude", "Bauwerk", "Haus"),
    ("fürchten", "befürchten", "sorgen"),
    ("Schülerinnen", "Lernende", "Kinder"),
    ("überraschend", "unerwartet", "plötzlich"),
]

CHANNEL_LEXICON = {w: generic for nat, syn, generic in SYNONYM_GROUPS for w in (nat, syn)}
DENOISER_LEXICON = {generic: nat for nat, _syn, generic in SYNONYM_GROUPS}
_SPECIAL = [w for group in SYNONYM_GROUPS for w in group[:2]]

NUMBERS = ["3,5", "1.000", "2019", "42", "7", "120", "12,8", "2.500", "90", "19."]
TRAILERS = [".", ".", ".", ".", "?", "!", ":"]

# Lines that break line framing when they pass through a command backend:
# LINE SEPARATOR, NEXT LINE, form feed and carriage return are line breaks
# for str.splitlines() and universal newlines, but not for the files.  The
# two control lines carry only characters every framing must keep.
FRAMING_PROBE = [
    ("u2028", "Die Polizei\u2028meldete einen Unfall."),
    ("u0085", "Der Bürgermeister\u0085trat zurück."),
    ("formfeed", "Seite eins\fSeite zwei."),
    ("cr", "Erste Zeile\rzweite Zeile."),
    ("control-quotes", "„Wir schaffen das“ – sagte sie."),
    ("control-tab", "Spalte eins\tSpalte zwei."),
]


def _vocabulary(rng: random.Random, base: list[str], n_pseudo: int) -> list[str]:
    words = set(base)
    while len(words) < len(base) + n_pseudo:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        words.add(word.capitalize() if rng.random() < 0.3 else word)
    return sorted(words)


class SentenceMaker:
    """Zipf-weighted sentences with news-style punctuation.

    The vocabulary and its frequency ranks do not depend on the seed, only
    the sampling does, so that the amount of text (and with it the work a
    workload does) varies little from seed to seed.
    """

    def __init__(self, seed: str, base: list[str], n_pseudo: int, special_share: float):
        vocab_rng = random.Random(f"vocab:{len(base)}:{n_pseudo}")
        self.vocab = _vocabulary(vocab_rng, base, n_pseudo)
        vocab_rng.shuffle(self.vocab)
        self.cum_weights = list(itertools.accumulate(1 / r for r in range(1, len(self.vocab) + 1)))
        self.special_share = special_share
        self.rng = random.Random(seed)

    def words(self, n: int) -> list[str]:
        rng = self.rng
        out = rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)
        for i in range(n):
            r = rng.random()
            if r < self.special_share:
                out[i] = rng.choice(_SPECIAL)
            elif r < self.special_share + 0.04:
                out[i] = rng.choice(NUMBERS)
            elif r < self.special_share + 0.10:
                out[i] += ","
        return out

    def sentence(self, min_len: int = 5, max_len: int = 30) -> str:
        rng = self.rng
        tokens = self.words(rng.randint(min_len, max_len))
        if len(tokens) > 6 and rng.random() < 0.15:
            i = rng.randrange(len(tokens) - 4)
            tokens[i] = "„" + tokens[i]
            tokens[i + 2] += "“"
        if len(tokens) > 4 and rng.random() < 0.12:
            tokens.insert(rng.randrange(1, len(tokens) - 1), "–")
        tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
        return " ".join(tokens).rstrip(",") + rng.choice(TRAILERS)


def _degrade(rng: random.Random, line: str, sub: float, drop: float, swap: float) -> str:
    """An MT-like variant of a reference: channel substitutions, drops, swaps."""
    tokens = [CHANNEL_LEXICON.get(t, t) if rng.random() < sub else t for t in line.split()]
    tokens = [t for t in tokens if rng.random() >= drop] or tokens[:1]
    for i in range(len(tokens) - 1):
        if rng.random() < swap:
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def _sgm(wrapper: str, docs: list[tuple[str, str, list[tuple[int, str]]]]) -> str:
    def esc(text: str) -> str:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    out = [f'<{wrapper} setid="perfbench" srclang="en" trglang="de">']
    for doc_id, origlang, segs in docs:
        out.append(f'<doc sysid="ref" docid="{doc_id}" genre="news" origlang="{origlang}">')
        out.extend(f'<seg id="{seg_id}">{esc(text)}</seg>' for seg_id, text in segs)
        out.append("</doc>")
    out.append(f"</{wrapper}>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- eval-split


@dataclass(frozen=True)
class EvalInputs:
    src_sgm: Path
    ref_sgm: Path
    systems: dict[str, Path]
    denoiser: Path
    n_segments: int


N_SYSTEMS = 4


def make_eval_inputs(seed: int, out: Path, n_segments: int = 1500) -> EvalInputs:
    """A 2-origin en-de test set in SGM and four MT systems' output.

    Documents are 8 to 30 segments long and alternately German- and
    English-original, so both halves are non-empty and no segment has an
    unknown origin.  Each system degrades the references with its own
    substitution, drop and swap rates.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{seed}:eval")
    de = SentenceMaker(f"{seed}:eval:de", GERMAN, 4000, special_share=0.06)
    en = SentenceMaker(f"{seed}:eval:en", ENGLISH, 3000, special_share=0.0)
    docs_src, docs_ref, refs = [], [], []
    first_origin = rng.randrange(2)
    seg = 0
    while seg < n_segments:
        size = min(rng.randint(8, 30), n_segments - seg)
        origlang = ("en", "de")[(len(docs_src) + first_origin) % 2]
        src_segs, ref_segs = [], []
        for k in range(size):
            ref = de.sentence(4, 22)
            refs.append(ref)
            src_segs.append((k + 1, en.sentence(4, 22)))
            ref_segs.append((k + 1, ref))
        doc_id = f"doc{len(docs_src) + 1:04d}"
        docs_src.append((doc_id, origlang, src_segs))
        docs_ref.append((doc_id, origlang, ref_segs))
        seg += size
    src_sgm, ref_sgm = out / "src.sgm", out / "ref.sgm"
    src_sgm.write_text(_sgm("srcset", docs_src), encoding="utf-8")
    ref_sgm.write_text(_sgm("refset", docs_ref), encoding="utf-8")

    systems = {}
    for k in range(N_SYSTEMS):
        sys_rng = random.Random(f"{seed}:eval:sys{k}")
        sub, drop, swap = 0.5 + 0.1 * k, 0.03 + 0.01 * k, 0.03 + 0.01 * k
        hyp = [
            ref if sys_rng.random() < 0.1 else _degrade(sys_rng, ref, sub, drop, swap)
            for ref in refs
        ]
        path = out / f"sys{k + 1}.txt"
        _write_text(path, hyp)
        systems[f"sys{k + 1}"] = path

    denoiser = out / "denoiser.json"
    _write_json(denoiser, {
        "kind": "toy_denoiser", "from_lang": "de", "to_lang": "de",
        "channel": {"lexicon": DENOISER_LEXICON},
    })
    return EvalInputs(src_sgm, ref_sgm, systems, denoiser, n_segments)


def make_eval_setup_inputs(out: Path) -> tuple[Path, Path, Path]:
    """A one-segment test set and system, for the set-up time probe."""
    out.mkdir(parents=True, exist_ok=True)
    doc = [("d1", "de", [(1, "„Die Straße“ – größer als 3,5 Meter.")])]
    src, ref, hyp = out / "one.src.sgm", out / "one.ref.sgm", out / "one.hyp.txt"
    src.write_text(_sgm("srcset", doc), encoding="utf-8")
    ref.write_text(_sgm("refset", doc), encoding="utf-8")
    _write_text(hyp, ["„Die Straße“ – größer als 3,5 Meter."])
    return src, ref, hyp


# ------------------------------------------------------------------ rtt-data


@dataclass(frozen=True)
class PipelineInputs:
    raw: Path
    to_pivot: Path
    from_pivot: Path
    n_lines: int


def corpus_prep_lines(seed: int, n_lines: int) -> list[str]:
    """A crawl-like stream: about 30% exact repeats of earlier lines, 2%
    over the 500-character cap, 2% over the 70-token cap but under the
    character cap, and 0.5% empty lines."""
    de = SentenceMaker(f"{seed}:corpus:de", GERMAN, 8000, special_share=0.05)
    rng = random.Random(f"{seed}:corpus")
    lines: list[str] = []
    for _ in range(n_lines):
        r = rng.random()
        if r < 0.30 and lines:
            lines.append(lines[rng.randrange(len(lines))])
        elif r < 0.32:
            lines.append(" ".join(de.sentence(30, 40) for _ in range(3)))  # > 500 chars
        elif r < 0.34:
            lines.append(" ".join(rng.choice(("ja", "so", "es", "ob", "um", "3,5", "–"))
                                  for _ in range(rng.randint(75, 110))))  # > 70 tokens
        elif r < 0.345:
            lines.append("")
        else:
            lines.append(de.sentence())
    return lines


def make_pipeline_inputs(seed: int, out: Path, n_lines: int = 60_000) -> PipelineInputs:
    """A gzipped German crawl and the two round-trip backends: a toy
    channel de->en and a ``cat`` command backend en->de."""
    out.mkdir(parents=True, exist_ok=True)
    raw = out / "crawl.de.txt.gz"
    text = "".join(line + "\n" for line in corpus_prep_lines(seed, n_lines))
    raw.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=1, mtime=0))
    to_pivot, from_pivot = out / "de-en.json", out / "en-de.json"
    _write_json(to_pivot, {
        "kind": "toy_channel", "from_lang": "de", "to_lang": "en",
        "channel": {"lexicon": CHANNEL_LEXICON, "drop_prob": 0.05, "swap_prob": 0.05,
                    "seed": seed},
    })
    _write_json(from_pivot, {"kind": "command", "from_lang": "en", "to_lang": "de",
                             "command": "cat", "batch_size": 64, "retries": 0})
    return PipelineInputs(raw, to_pivot, from_pivot, n_lines)
