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

from repro.lsm.iterators import RunMerge
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

        merge = RunMerge([
            meta.table.iterator(refill_stage=Stage.COMPACT_READ)
            for meta in all_inputs])
        merge.seek_to_first()

        outputs: List[FileMetaData] = []
        target_level = task.target_level

        options = self.options
        capacity = options.value_capacity
        entry_bytes = options.entry_bytes
        # Inputs laid out like the output hand their stored entry bytes
        # straight to the builder; any other layout is re-encoded.
        same_layout = all(
            meta.table.footer.entry_bytes == entry_bytes
            and meta.table.footer.value_capacity == capacity
            for meta in all_inputs)
        # Tiering keeps each merge output as one run (one file) so run
        # counting stays trivial; leveling chops at the SSTable size
        # (the granularity axis).
        cut = (0 if self._tiering
               else max(1, -(-options.sstable_bytes // entry_bytes)))
        last_key: Optional[int] = None
        entries_in = superseded = dropped = 0
        # The next output's keys, copied entries and metas: handed to its
        # builder in one append once it holds ``full`` entries.
        keys: List[int] = []
        chunks: List[bytes] = []
        metas_out: List[int] = []
        full = cut or sum(meta.entry_count for meta in all_inputs) + 1
        # One COMPACT_MERGE charge per merged entry, in entry order, each
        # after the merge moved past its entry: a refill comes before the
        # charge of the entry that emptied the block, and an output cut
        # after the charge of the entry that filled it.  The tracer adds
        # charges into the open span in call order, across stages, so
        # ``pending`` charges are made in one call right before anything
        # else can charge.
        merge_us = self.cost.merge_entry_us
        charge_each = self.stats.charge_each
        pending = 0
        run = merge.next_run()
        try:
            while run is not None:
                # The child's entries [start, end) come next.  All are read
                # off its block before ``next_run`` may refill it.
                child, end = run
                start = child.head
                run_keys, metas = child.keys, child.metas
                entries_in += end - start
                # Tables hold one entry per key, so only the run's first
                # entry can be an older version of the key emitted last;
                # every other is the newest version of its key.
                first = start
                if run_keys[start] == last_key:
                    superseded += 1
                    first += 1
                last_key = run_keys[end - 1]
                counted = start  # entries [start, counted) are in pending
                filled = False  # the run's last entry fills the output
                if first == end:
                    pass  # one older version: nothing to copy
                elif (same_layout and len(keys) + end - first < full
                        and not (drop_tombstones and any(
                            meta & 0xFF == KIND_TOMBSTONE
                            for meta in metas[first:end]))):
                    # The common run: copied whole, no output cut in it.
                    keys += run_keys[first:end]
                    metas_out += metas[first:end]
                    chunks.append(child.buf[first * entry_bytes:
                                            end * entry_bytes])
                else:
                    # Tombstones to drop, an output cut, or re-encoding.
                    kept = [(first, end)]
                    if drop_tombstones:
                        tombstones = [at for at in range(first, end)
                                      if metas[at] & 0xFF == KIND_TOMBSTONE]
                        dropped += len(tombstones)
                        kept = [(lo, hi) for lo, hi in zip(
                                    [first] + [at + 1 for at in tombstones],
                                    tombstones + [end]) if lo < hi]
                    buf = child.buf
                    for lo, hi in kept:
                        while lo < hi:
                            upto = min(hi, lo + full - len(keys))
                            keys += run_keys[lo:upto]
                            metas_out += metas[lo:upto]
                            chunks.append(
                                buf[lo * entry_bytes:upto * entry_bytes]
                                if same_layout else b"".join([
                                    encode_entry(child.row(at), capacity)
                                    for at in range(lo, upto)]))
                            lo = upto
                            if len(keys) < full:
                                continue
                            if upto == end:
                                filled = True  # cut after the refill
                                continue
                            charge_each(Stage.COMPACT_MERGE, merge_us,
                                        pending + upto - counted)
                            pending, counted = 0, upto
                            outputs.append(self._output(
                                tree, target_level, keys, chunks, metas_out))
                            keys, chunks, metas_out = [], [], []
                pending += end - counted
                if end < len(run_keys):
                    run = merge.next_run(end)
                else:  # the child moves on to its next block
                    charge_each(Stage.COMPACT_MERGE, merge_us, pending - 1)
                    pending = 0
                    run = merge.next_run(end)
                    pending = 1
                if filled:
                    charge_each(Stage.COMPACT_MERGE, merge_us, pending)
                    pending = 0
                    outputs.append(self._output(tree, target_level, keys,
                                                chunks, metas_out))
                    keys, chunks, metas_out = [], [], []
        finally:
            charge_each(Stage.COMPACT_MERGE, merge_us, pending)
        if keys:
            outputs.append(self._output(tree, target_level, keys, chunks,
                                        metas_out))
        entries_out = entries_in - superseded - dropped

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
                chunks: List[bytes], metas: List[int]) -> FileMetaData:
        """Build and seal one output table from its copied entries."""
        builder = tree.new_table(level)
        builder.append(keys, b"".join(chunks), max(metas) >> 8)
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
