"""Leveling compaction with partial merges (LevelDB's policy).

Compactions are picked the way the paper's testbed (LevelDB) picks
them:

* level 0 compacts when it accumulates ``l0_compaction_trigger`` files;
  all L0 files plus the overlapping L1 files merge into L1;
* level L >= 1 compacts when its payload exceeds
  ``write_buffer_bytes * T^L``; one file is chosen round-robin by key
  (LevelDB's compact pointer) and merged with the overlapping files of
  level L+1 — a *partial* compaction, so sorted runs are rewritten a
  few SSTables at a time.

Every stage is charged separately (read, merge, write, train, write
model) so Figure 9's breakdown is a direct read-out of the stats
registry.  Tombstones are dropped when nothing deeper can hold the
key, exactly like LevelDB's ``IsBaseLevelForKey`` test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.lsm.iterators import MergingIterator
from repro.lsm.options import CompactionPolicy
from repro.obs.trace import OpType
from repro.lsm.record import KIND_TOMBSTONE, encode_entry
from repro.lsm.version import FileMetaData, Version
from repro.storage.stats import (
    COMPACT_BYTES_IN,
    COMPACT_BYTES_OUT,
    COMPACTIONS,
    Stage,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import LSMTree


@dataclass
class CompactionTask:
    """One unit of compaction work: inputs above, overlaps below."""

    level: int
    inputs: List[FileMetaData]
    overlaps: List[FileMetaData]

    @property
    def target_level(self) -> int:
        """The level the merged output lands in."""
        return self.level + 1

    def all_inputs(self) -> List[FileMetaData]:
        """Every input file, upper level first."""
        return list(self.inputs) + list(self.overlaps)


@dataclass
class CompactionOutcome:
    """What a finished compaction produced."""

    task: CompactionTask
    outputs: List[FileMetaData] = field(default_factory=list)
    entries_in: int = 0
    entries_out: int = 0
    dropped_tombstones: int = 0
    superseded: int = 0


class Compactor:
    """Executes the leveling policy over a tree's :class:`Version`.

    It picks the inputs and merges them; the tree builds, seals and
    commits the output tables (:meth:`LSMTree.new_table`,
    :meth:`LSMTree.seal`, :meth:`LSMTree.commit`).
    """

    def __init__(self, tree: "LSMTree") -> None:
        # The tree is passed to :meth:`run`, not kept: a back-reference
        # would hold a closed tree (and its device's bytes) in a cycle.
        self.options = tree.options
        self.stats = tree.stats
        self.cost = tree.cost
        #: LevelDB-style compact pointers: last compacted max key per level.
        self._pointers: Dict[int, int] = {}

    @property
    def _tiering(self) -> bool:
        return self.options.compaction_policy is CompactionPolicy.TIERING

    # -- picking -----------------------------------------------------------

    def pick_task(self, version: Version) -> Optional[CompactionTask]:
        """The next compaction to run, or None when all levels fit."""
        if self._tiering:
            return self._pick_tiering(version)
        options = self.options
        if version.file_count(0) >= options.l0_compaction_trigger:
            inputs = list(version.levels[0])
            min_key = min(meta.min_key for meta in inputs)
            max_key = max(meta.max_key for meta in inputs)
            overlaps = version.overlapping_files(1, min_key, max_key)
            return CompactionTask(level=0, inputs=inputs, overlaps=overlaps)
        for level in range(1, options.max_levels - 1):
            if (version.level_data_bytes(level)
                    > options.level_capacity_bytes(level)):
                chosen = self._round_robin_file(version, level)
                overlaps = version.overlapping_files(
                    level + 1, chosen.min_key, chosen.max_key)
                return CompactionTask(level=level, inputs=[chosen],
                                      overlaps=overlaps)
        return None

    def _pick_tiering(self, version: Version) -> Optional[CompactionTask]:
        """Tiering: a full level of runs merges into one run below.

        Nothing at the destination is rewritten (that is tiering's
        write saving), so ``overlaps`` stays empty.
        """
        options = self.options
        if version.file_count(0) >= options.l0_compaction_trigger:
            return CompactionTask(level=0, inputs=list(version.levels[0]),
                                  overlaps=[])
        for level in range(1, options.max_levels - 1):
            if version.file_count(level) >= options.size_ratio:
                return CompactionTask(level=level,
                                      inputs=list(version.levels[level]),
                                      overlaps=[])
        return None

    def _round_robin_file(self, version: Version, level: int) -> FileMetaData:
        files = version.levels[level]
        pointer = self._pointers.get(level)
        if pointer is not None:
            for meta in files:
                if meta.min_key > pointer:
                    return meta
        return files[0]

    # -- execution -----------------------------------------------------------

    def run(self, tree: "LSMTree",
            task: CompactionTask) -> CompactionOutcome:
        """Merge the task's inputs into ``task.target_level`` of
        ``tree``."""
        tracer = self.stats.tracer
        span = (tracer.begin(OpType.COMPACTION,
                             f"L{task.level}->L{task.target_level} "
                             f"{len(task.all_inputs())} files")
                if tracer is not None else None)
        try:
            return self._do_run(tree, task)
        finally:
            if tracer is not None:
                tracer.end(span)

    def _do_run(self, tree: "LSMTree",
                task: CompactionTask) -> CompactionOutcome:
        version = tree.version
        outcome = CompactionOutcome(task=task)
        all_inputs = task.all_inputs()
        min_key = min(meta.min_key for meta in all_inputs)
        max_key = max(meta.max_key for meta in all_inputs)
        # Leveling rewrites the target level's overlap (it is part of the
        # inputs), so only deeper levels matter; tiering leaves existing
        # target-level runs untouched, so they count as "below" too.
        overlap_from = task.level if self._tiering else task.target_level
        drop_tombstones = not version.key_range_overlaps_below(
            overlap_from, min_key, max_key)

        merged = MergingIterator([
            meta.table.iterator(refill_stage=Stage.COMPACT_READ)
            for meta in all_inputs])
        merged.seek_to_first()

        outputs: List[FileMetaData] = []
        target_level = task.target_level

        options = self.options
        capacity = options.value_capacity
        # Inputs laid out like the output hand their stored entry bytes
        # straight to the builder; any other layout is re-encoded.
        same_layout = all(
            meta.table.footer.entry_bytes == options.entry_bytes
            and meta.table.footer.value_capacity == capacity
            for meta in all_inputs)
        # Tiering keeps each merge output as one run (one file) so run
        # counting stays trivial; leveling chops at the SSTable size
        # (the granularity axis).
        cut = (0 if self._tiering
               else max(1, -(-options.sstable_bytes // options.entry_bytes)))
        last_key: Optional[int] = None
        merge_cost = self.cost.merge_entry_us
        charge = self.stats.charge
        entries_in = entries_out = superseded = dropped = 0
        # The next output's keys, copied entries and largest seq: handed
        # to its builder in one append when the output is cut.
        keys: List[int] = []
        chunks: List[bytes] = []
        max_seq = 0
        while merged.valid():
            # Headers only, and everything read before the child moves
            # on.  The first entry of a key is its newest version; older
            # ones and droppable tombstones are never copied.
            key = merged.key()
            newest = key != last_key
            if newest:
                seq = merged.seq()
                top = merged.top()
                keep = not (drop_tombstones and top.kind() == KIND_TOMBSTONE)
                if keep:
                    entry = (top.entry() if same_layout
                             else encode_entry(top.record(), capacity))
            merged.advance()
            entries_in += 1
            # One call per entry, after the advance: the tracer adds every
            # charge into the open span across stages, in call order.
            charge(Stage.COMPACT_MERGE, merge_cost)
            if not newest:
                superseded += 1
                continue
            last_key = key
            if not keep:
                dropped += 1
                continue
            keys.append(key)
            chunks.append(entry)
            if seq > max_seq:
                max_seq = seq
            entries_out += 1
            # Every finished output holds exactly ``cut`` entries.
            if cut and entries_out % cut == 0:
                outputs.append(self._output(tree, target_level, keys,
                                            chunks, max_seq))
                keys, chunks, max_seq = [], [], 0
        if keys:
            outputs.append(self._output(tree, target_level, keys, chunks,
                                        max_seq))

        self._install(tree, task, outputs)
        outcome.outputs = outputs
        outcome.entries_in = entries_in
        outcome.entries_out = entries_out
        outcome.superseded = superseded
        outcome.dropped_tombstones = dropped
        self.stats.add(COMPACTIONS)
        self.stats.add(COMPACT_BYTES_IN, entries_in * options.entry_bytes)
        self.stats.add(COMPACT_BYTES_OUT, entries_out * options.entry_bytes)
        return outcome

    @staticmethod
    def _output(tree: "LSMTree", level: int, keys: List[int],
                chunks: List[bytes], max_seq: int) -> FileMetaData:
        """Build and seal one output table from its copied entries."""
        builder = tree.new_table(level)
        builder.append(keys, b"".join(chunks), max_seq)
        return tree.seal(builder)

    def _install(self, tree: "LSMTree", task: CompactionTask,
                 outputs: List[FileMetaData]) -> None:
        """Swap inputs for outputs in ``version``, then commit the swap
        (the crash-safe order lives in :meth:`LSMTree.commit`)."""
        version = tree.version
        version.remove_files(task.level, task.inputs)
        version.remove_files(task.target_level, task.overlaps)
        for meta in outputs:
            version.add_file(task.target_level, meta)
        if task.inputs:
            self._pointers[task.level] = max(
                meta.max_key for meta in task.inputs)
        tree.commit(
            "compaction", Stage.COMPACT_WRITE,
            added=[(task.target_level, meta) for meta in outputs],
            retired=([(task.level, meta) for meta in task.inputs]
                     + [(task.target_level, meta) for meta in task.overlaps]),
            retrain=sorted({task.level, task.target_level} - {0}))
