"""Level metadata: which tables live where.

A :class:`Version` tracks the file layout: level 0 holds possibly
overlapping tables ordered newest-first (each flush adds one); levels
1+ are single sorted runs partitioned into non-overlapping SSTables
ordered by key.  This is the in-memory half of LevelDB's manifest
state; the on-disk half — the version-edit log that ``LSMTree.reopen``
replays — is :mod:`repro.persist.manifest`.

Each ``levels[i]`` is a tuple, replaced whole by :meth:`Version.add_file`,
:meth:`Version.remove_files` and :meth:`Version.replace_file`: those
three are the only writers, and each drops what is cached per level
(the ``min_key`` fence array point lookups bisect).  An in-place edit
from outside raises instead of silently leaving the fences stale.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.errors import StorageError
from repro.lsm.sstable import Table


@dataclass
class FileMetaData:
    """One live SSTable and its bookkeeping."""

    number: int
    table: Table

    @property
    def name(self) -> str:
        """Device file name."""
        return self.table.name

    @property
    def min_key(self) -> int:
        """Smallest user key in the file."""
        return self.table.min_key

    @property
    def max_key(self) -> int:
        """Largest user key in the file."""
        return self.table.max_key

    @property
    def entry_count(self) -> int:
        """Entries stored in the file."""
        return self.table.entry_count

    @property
    def data_bytes(self) -> int:
        """Payload bytes (entries only, excluding index/bloom/footer)."""
        return self.table.entry_count * self.table.footer.entry_bytes


@dataclass
class Version:
    """Mutable file layout across levels.

    With ``overlapping_levels`` (tiering), every level behaves like
    level 0: files may overlap and are kept newest-first.  Otherwise
    (leveling) levels >= 1 are single sorted runs and overlap is a
    structural error.
    """

    max_levels: int
    overlapping_levels: bool = False
    levels: List[Tuple[FileMetaData, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            self.levels = [() for _ in range(self.max_levels)]
        #: Per level, the ``min_key`` of each file in order (None = stale).
        self._fences: List[Optional[List[int]]] = [None] * self.max_levels

    def level_overlaps(self, level: int) -> bool:
        """True when ``level`` holds overlapping runs, newest first."""
        return level == 0 or self.overlapping_levels

    def _min_keys(self, level: int) -> List[int]:
        """Fence array of a sorted level, rebuilt after a version edit."""
        fences = self._fences[level]
        if fences is None:
            fences = self._fences[level] = [
                meta.min_key for meta in self.levels[level]]
        return fences

    # -- mutation ----------------------------------------------------------

    def add_file(self, level: int, meta: FileMetaData) -> None:
        """Register ``meta`` at ``level`` keeping the level's ordering."""
        self._check_level(level)
        files = self.levels[level]
        if self.level_overlaps(level):
            pos = 0  # newest first
        else:
            pos = bisect_right(self._min_keys(level), meta.min_key)
            if pos > 0 and files[pos - 1].max_key >= meta.min_key:
                raise StorageError(
                    f"overlap adding file {meta.name} to level {level}")
            if pos < len(files) and files[pos].min_key <= meta.max_key:
                raise StorageError(
                    f"overlap adding file {meta.name} to level {level}")
        self._set(level, files[:pos] + (meta,) + files[pos:])

    def remove_files(self, level: int, metas: Iterable[FileMetaData]) -> None:
        """Drop the given files from ``level``."""
        self._check_level(level)
        numbers = {meta.number for meta in metas}
        self._set(level, tuple(meta for meta in self.levels[level]
                               if meta.number not in numbers))

    def replace_file(self, level: int, old: FileMetaData,
                     new: Optional[FileMetaData]) -> None:
        """Put ``new`` in ``old``'s slot at ``level``; ``None`` drops it.

        The slot is kept, not re-derived: a rewritten L0 file holds old
        data, and moving it above newer overlapping files would let its
        stale versions shadow fresh ones.  ``new`` must cover a subset
        of ``old``'s key range on a sorted level.
        """
        self._check_level(level)
        files = self.levels[level]
        slot = files.index(old)
        middle = () if new is None else (new,)
        self._set(level, files[:slot] + middle + files[slot + 1:])

    def _set(self, level: int, files: Tuple[FileMetaData, ...]) -> None:
        self.levels[level] = files
        self._fences[level] = None

    # -- queries -----------------------------------------------------------

    def files_for_key(self, level: int, key: int) -> List[FileMetaData]:
        """Files at ``level`` whose key range may contain ``key``.

        Overlapping levels (level 0, or every level under tiering)
        return every covering file newest-first; sorted-run levels
        return at most one file.
        """
        self._check_level(level)
        files = self.levels[level]
        if self.level_overlaps(level):
            return [meta for meta in files
                    if meta.min_key <= key <= meta.max_key]
        idx = bisect_right(self._min_keys(level), key) - 1
        if idx >= 0 and files[idx].max_key >= key:
            return [files[idx]]
        return []

    def overlapping_files(self, level: int, min_key: int,
                          max_key: int) -> List[FileMetaData]:
        """Files at ``level`` whose range intersects [min_key, max_key]."""
        self._check_level(level)
        return [meta for meta in self.levels[level]
                if meta.max_key >= min_key and meta.min_key <= max_key]

    def level_data_bytes(self, level: int) -> int:
        """Sum of payload bytes at ``level``."""
        self._check_level(level)
        return sum(meta.data_bytes for meta in self.levels[level])

    def level_entry_count(self, level: int) -> int:
        """Sum of entries at ``level``."""
        self._check_level(level)
        return sum(meta.entry_count for meta in self.levels[level])

    def file_count(self, level: Optional[int] = None) -> int:
        """File count at one level, or across all levels."""
        if level is not None:
            self._check_level(level)
            return len(self.levels[level])
        return sum(len(files) for files in self.levels)

    def deepest_nonempty_level(self) -> int:
        """Index of the deepest level holding data (-1 when empty)."""
        for level in range(self.max_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return -1

    def all_files(self) -> List[Tuple[int, FileMetaData]]:
        """Every (level, file) pair, shallow levels first."""
        out: List[Tuple[int, FileMetaData]] = []
        for level, files in enumerate(self.levels):
            out.extend((level, meta) for meta in files)
        return out

    def key_range_overlaps_below(self, level: int, min_key: int,
                                 max_key: int) -> bool:
        """True when any file deeper than ``level`` intersects the range."""
        for deeper in range(level + 1, self.max_levels):
            if self.overlapping_files(deeper, min_key, max_key):
                return True
        return False

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.max_levels:
            raise StorageError(
                f"level {level} out of range [0, {self.max_levels})")
