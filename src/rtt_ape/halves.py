"""The index partition of a test set by segment origin, and the split file
that stores it.

A module of its own, so that a command that only reads a split file
(``ape-apply``) does not load the SGM parser in ``testset``, which builds
the partition (``split_by_origin``) and re-exports it."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .lineio import read_json

# Where post-editing applies: every line, or the target-original half only.
# The scopes of ``apply_ape`` (``ape-apply --scope``) and the modes of
# ``merge_selective`` (``merge --mode``).
ALL, TARGET_ORIGINAL_ONLY = SCOPES = ("all", "target_original_only")

GROUPS = ("source_original", "target_original", "unknown")


@dataclass(frozen=True)
class SplitHalves:
    """Index partition of a test set by the original language of each segment.

    Indices whose origin is neither the source nor the target language land
    in ``unknown`` and belong to no half.  The three groups are disjoint;
    ``split_by_origin`` output also covers the whole set.
    """

    source_original: tuple[int, ...]
    target_original: tuple[int, ...] = ()
    unknown: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        """Every index is a non-negative ``int`` (not a ``bool``) in one
        group only; a ``ValueError`` names the group otherwise.  Whether an
        index is below the number of lines is ``check_range``'s job."""
        seen: set[int] = set()
        for group in GROUPS:
            indices = getattr(self, group)
            for i in indices:
                if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                    raise ValueError(f"{group}: index {i!r} is not a non-negative integer")
            repeated = seen.intersection(indices)
            if repeated:
                raise ValueError(f"{group}: index {min(repeated)} is also in an earlier group")
            seen.update(indices)

    def check_range(self, n: int) -> None:
        """A ``ValueError`` naming the group unless every index of every
        group is below ``n``, the number of lines the halves index."""
        for group in GROUPS:
            indices = getattr(self, group)
            if indices and max(indices) >= n:
                raise ValueError(f"{group}: split index {max(indices)} out of range for {n} lines")

    def payload(self, n: int, src_lang: str, tgt_lang: str) -> dict:
        """The JSON object of a split file (what ``split`` writes) for a
        test set of ``n`` segments."""
        groups = {group: list(getattr(self, group)) for group in GROUPS}
        return {"n": n, "src_lang": src_lang, "tgt_lang": tgt_lang, **groups}

    @classmethod
    def read(cls, path: str | Path, n: int) -> SplitHalves:
        """The halves in the split file at ``path``, used with ``n`` lines.

        ``unknown`` and ``n`` may be absent.  A malformed file, an invalid
        or out-of-range index, or a recorded ``n`` other than ``n`` is a
        ``DataError`` that names the file (and the group of a bad index)."""

        def build(d: object) -> SplitHalves:
            if not isinstance(d, dict):
                raise ValueError("expected a JSON object")
            if d.get("n", n) != n:
                raise ValueError(f"n: written for {d['n']} lines, used with {n}")
            halves = cls(tuple(d["source_original"]), tuple(d["target_original"]),
                         tuple(d.get("unknown", ())))
            halves.check_range(n)
            return halves

        return read_json(path, "split file", build)
