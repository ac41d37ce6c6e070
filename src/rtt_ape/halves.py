"""The index partition of a test set by segment origin.

A module of its own, so that a command that only reads a split file
(``ape-apply``) does not load the SGM parser in ``testset``, which builds
the partition (``split_by_origin``) and re-exports it."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SplitHalves:
    """Index partition of a test set by the original language of each segment.

    Indices whose origin is neither the source nor the target language land
    in ``unknown`` and belong to no half; the three groups are disjoint and
    together cover the whole set.
    """

    source_original: tuple[int, ...]
    target_original: tuple[int, ...] = ()
    unknown: tuple[int, ...] = ()
