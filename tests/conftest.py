"""Shared generators and checks for the test suite.

``random_parallel_corpus`` produces natural-looking (hypothesis, reference)
pairs for scorer property tests.  ``build_bias_fixture`` constructs the
synthetic evaluation corpus used by the end-to-end bias experiments: a
noise channel whose many-to-one lexicon collapses synonym pairs onto a
generic word, a denoiser mapping the generic word back to one designated
synonym, and a reference set whose two halves are natural text and
channel text respectively.

Every test must also stop the threads and reap the processes it starts:
``no_leaked_threads`` and ``no_leaked_processes`` fail it otherwise, as the
``error::ResourceWarning`` filter in ``pyproject.toml`` fails a test that
leaks a file or socket.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
import threading
import time
from dataclasses import dataclass

import pytest

from rtt_ape.backends import BackendSpec, ChannelConfig
from rtt_ape.testset import Segment, SplitHalves, TestSet

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo fu ga ge gi go gu "
    "ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni no nu "
    "pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu"
).split()

WORDS = (
    "the a of to and in that it was for on are with as his they at be this "
    "from or had by word but not what all were when your can said there use "
    "each which she do how their if will up other about out many then them "
    "these so some her would make like him into time has look two more write "
    "go see number way could people my than first water been call who oil its "
    "now find long down day did get come made may part over new sound take "
    "only little work know place year live me back give most very after thing "
    "our just name good sentence man think say great where help through much "
    "before line right too mean old any same tell boy follow came want show "
    "also around form three small set put end does another well large must "
    "big even such because turn here why ask went men read need land different "
    "home us move try kind hand picture again change off play spell air away "
    "animal house point page letter mother answer found study still learn "
    "should America world high every near add food between own below country "
    "plant last school father keep tree never start city earth eye light "
    "thought head under story saw left few while along might close something "
    "seem next hard open example begin life always those both paper together "
    "got group often run important until children side feet car mile night "
    "walk white sea began grow took river four carry state once book hear "
    "stop without second late miss idea enough eat face watch far Indian "
    "really almost let above girl sometimes mountain cut young talk soon list "
    "song being leave family body music color stand sun question fish area "
    "mark dog horse birds problem complete room knew since ever piece told "
    "usually friends easy heard order red door sure become top ship across "
    "today during short better best however low hours black products happened "
    "whole measure remember early waves reached"
).split()

# How long a thread a test started may take to finish after the test.
THREAD_JOIN_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread of its own running.  Threads of
    broader-scoped fixtures (the HTTP test servers) start before this
    snapshot, so they do not count."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(THREAD_JOIN_S)
    leaked = [t.name for t in started if t.is_alive()]
    assert not leaked, f"threads still running after the test: {leaked}"


def child_pids() -> set[int] | None:
    """Process ids of this process's children, running or not yet reaped,
    from ``/proc`` (``None`` where it does not list them)."""
    files = glob.glob("/proc/self/task/*/children")
    if not files:
        return None
    pids = set()
    for path in files:
        with contextlib.suppress(OSError):  # a thread that has just ended
            with open(path) as fh:
                pids.update(map(int, fh.read().split()))
    return pids


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process of its own behind, running or
    unreaped, after a grace period of ``THREAD_JOIN_S``.  Skipped where
    ``/proc`` does not list children."""
    before = child_pids()
    yield
    if before is None:
        return
    deadline = time.monotonic() + THREAD_JOIN_S
    while (leaked := child_pids() - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked, f"child processes still there after the test: {sorted(leaked)}"


def command_killing_its_worker() -> str:
    """A command backend's command that copies its batch, except that on a
    batch of one "BOOM" line it kills its parent process with SIGKILL, when
    that is a batch worker, not this process."""
    return ("sh -c 'batch=$(cat); if [ \"$batch\" = BOOM ] && [ $PPID != "
            f"{os.getpid()} ]; then kill -9 $PPID; fi; printf \"%s\\n\" \"$batch\"'")


PUNCT = ["", "", "", "", ",", ".", "!", "?", ";", ":"]
DIGITS = ["3.5", "1,000", "2019", "42", "7", "120"]


def random_sentence(rng: random.Random, min_len: int = 5, max_len: int = 16) -> str:
    tokens = []
    for _ in range(rng.randint(min_len, max_len)):
        if rng.random() < 0.08:
            tokens.append(rng.choice(DIGITS))
        else:
            word = rng.choice(WORDS)
            if rng.random() < 0.15:
                word = word.capitalize()
            tokens.append(word + rng.choice(PUNCT))
    return " ".join(tokens)


def perturb_sentence(
    rng: random.Random, sentence: str, drop: float = 0.1, swap: float = 0.08, sub: float = 0.1
) -> str:
    tokens = [t for t in sentence.split() if rng.random() >= drop]
    tokens = [rng.choice(WORDS) if rng.random() < sub else t for t in tokens]
    for i in range(len(tokens) - 1):
        if rng.random() < swap:
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


def random_parallel_corpus(rng: random.Random, n_pairs: int) -> tuple[list[str], list[str]]:
    refs = [random_sentence(rng) for _ in range(n_pairs)]
    hyps = [perturb_sentence(rng, r) for r in refs]
    return hyps, refs


def _pseudo_words(rng: random.Random, count: int, n_syllables: int = 3) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(n_syllables)))
    return sorted(words)


@dataclass
class BiasFixture:
    natural: list[str]
    references: list[str]
    mt_output: list[str]
    testset: TestSet
    halves: SplitHalves
    channel: ChannelConfig
    denoiser: ChannelConfig

    def denoiser_backend(self) -> BackendSpec:
        return BackendSpec.toy_denoiser(self.denoiser, lang="de")


def build_bias_fixture(n: int = 1000, n_groups: int = 40, seed: int = 5) -> BiasFixture:
    """Synthetic test set with a known translationese bias.

    Even indices are target-original (natural references); odd indices are
    source-original (references produced by an independent pass through the
    same noise channel, standing in for human translationese).  The "MT
    output" is a third channel pass over all lines.
    """
    rng = random.Random(seed)
    words = _pseudo_words(rng, 240 + 3 * n_groups)
    neutral = words[: 240]
    specials = words[240:]
    groups = [
        (specials[3 * i], specials[3 * i + 1], specials[3 * i + 2]) for i in range(n_groups)
    ]

    channel_lexicon = {}
    denoiser_lexicon = {}
    for designated, synonym, generic in groups:
        channel_lexicon[designated] = generic
        channel_lexicon[synonym] = generic
        denoiser_lexicon[generic] = designated

    natural = []
    for _ in range(n):
        tokens = []
        for _ in range(rng.randint(8, 14)):
            if rng.random() < 0.25:
                designated, synonym, _ = rng.choice(groups)
                tokens.append(designated if rng.random() < 0.5 else synonym)
            else:
                tokens.append(rng.choice(neutral))
        natural.append(" ".join(tokens))

    ref_channel = ChannelConfig(lexicon=channel_lexicon, drop_prob=0.05, swap_prob=0.05, seed=101)
    mt_channel = ChannelConfig(lexicon=channel_lexicon, drop_prob=0.08, swap_prob=0.08, seed=202)
    denoiser = ChannelConfig(lexicon=denoiser_lexicon, seed=0)

    from rtt_ape.backends import channel_apply

    translationese = [channel_apply(ref_channel, line, i) for i, line in enumerate(natural)]
    mt_output = [channel_apply(mt_channel, line, i) for i, line in enumerate(natural)]

    target_original = tuple(range(0, n, 2))
    source_original = tuple(range(1, n, 2))
    references = [
        natural[i] if i in set(target_original) else translationese[i] for i in range(n)
    ]

    source_segments = []
    reference_segments = []
    for i in range(n):
        orig = "de" if i % 2 == 0 else "en"
        source_segments.append(
            Segment(seg_id=str(i + 1), doc_id="synthetic", orig_lang=orig, text=natural[i])
        )
        reference_segments.append(
            Segment(seg_id=str(i + 1), doc_id="synthetic", orig_lang=orig, text=references[i])
        )
    ts = TestSet(
        name="synthetic-bias",
        src_lang="en",
        tgt_lang="de",
        source=source_segments,
        reference=reference_segments,
    )
    return BiasFixture(
        natural=natural,
        references=references,
        mt_output=mt_output,
        testset=ts,
        halves=SplitHalves(source_original, target_original),
        channel=mt_channel,
        denoiser=denoiser,
    )
