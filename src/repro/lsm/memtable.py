"""The write buffer: a sorted key array plus the newest record per key.

LevelDB's memtable is a skip list over internal keys; ours keeps only
the *newest* record per user key, which is equivalent for every
externally observable behaviour and keeps flushed tables free of
intra-table duplicates, as the learned indexes' strictly increasing key
arrays require.  The simulated clock still charges a skip-list descent,
computed from the entry count by :meth:`MemTable.comparison_depth`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, Iterator, List, Optional

from repro.lsm.record import Record

# Shape of the skip list whose descent the cost model charges.
_MAX_HEIGHT = 12
_BRANCHING = 4


class MemTable:
    """Sorted-array write buffer tracking its approximate on-disk size."""

    def __init__(self, entry_bytes: int) -> None:
        self._entry_bytes = entry_bytes
        self._keys: List[int] = []
        self._records: Dict[int, Record] = {}

    # -- mutation ----------------------------------------------------------

    def add(self, record: Record) -> None:
        """Insert ``record``; an existing entry for the key is superseded
        unless it carries a newer sequence number."""
        stored = self._records.get(record.key)
        if stored is None:
            insort(self._keys, record.key)
        elif record.seq < stored.seq:
            return
        self._records[record.key] = record

    # -- queries -----------------------------------------------------------

    def get(self, key: int) -> Optional[Record]:
        """Newest record for ``key`` in the buffer, or None."""
        return self._records.get(key)

    def get_many(self, sorted_keys: Iterable[int]) -> Dict[int, Record]:
        """Records for every present key of an ascending batch; callers
        charge one descent per batch (:meth:`repro.lsm.db.LSMTree.multi_get`).
        """
        records = self._records
        return {key: records[key] for key in sorted_keys if key in records}

    def __len__(self) -> int:
        return len(self._keys)

    def approximate_bytes(self) -> int:
        """Flushed size estimate (entries x fixed entry size)."""
        return len(self._keys) * self._entry_bytes

    def is_empty(self) -> bool:
        """True when no records are buffered."""
        return not self._keys

    def records(self) -> Iterator[Record]:
        """All records in ascending key order."""
        return self.records_from(0)  # keys lie in [0, MAX_KEY]

    def records_from(self, key: int) -> Iterator[Record]:
        """Records with key >= ``key`` in ascending key order.

        Each step resumes after the last key yielded, so a cursor held
        across writes yields keys added ahead of it, and each key's
        record as it stands when the cursor reaches it.
        """
        keys = self._keys
        pos = bisect_left(keys, key)
        while pos < len(keys):
            last = keys[pos]
            yield self._records[last]
            pos = bisect_right(keys, last)

    def comparison_depth(self) -> int:
        """Approximate comparisons for one lookup (for cost charging)."""
        # A skip list behaves like a balanced structure of height
        # log_b(n); each level costs ~b/2 comparisons.
        count = max(2, len(self._keys))
        depth = 1
        while _BRANCHING ** depth < count and depth < _MAX_HEIGHT:
            depth += 1
        return depth * (_BRANCHING // 2 + 1)
