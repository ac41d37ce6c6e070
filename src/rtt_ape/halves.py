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

    def __post_init__(self) -> None:
        """Every index is a non-negative ``int`` (not a ``bool``) in one
        group only; a ``ValueError`` names the group otherwise.  Whether an
        index is below the number of lines is for its user to check."""
        seen: set[int] = set()
        for group in ("source_original", "target_original", "unknown"):
            indices = getattr(self, group)
            for i in indices:
                if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                    raise ValueError(f"{group}: index {i!r} is not a non-negative integer")
            repeated = seen.intersection(indices)
            if repeated:
                raise ValueError(f"{group}: index {min(repeated)} is also in an earlier group")
            seen.update(indices)
