"""The LSM-tree engine: a LevelDB-style store with pluggable indexes.

Public surface:

* :class:`~repro.lsm.db.LSMTree` — the database (put/get/delete/scan).
* :class:`~repro.lsm.options.Options` / :class:`~repro.lsm.options.Granularity`
  — configuration, including the paper's three tuning axes.
* :class:`~repro.lsm.sstable.Table` / :class:`~repro.lsm.sstable.TableBuilder`
  — the ``LearnedIndexTable`` file format.
* Substrate pieces (memtable, bloom, WAL, compaction, iterators) for
  users composing their own pipelines.
"""

from repro.lsm.bloom import BloomFilter
from repro.lsm.compaction import CompactionOutcome, CompactionTask, Compactor
from repro.lsm.db import LevelIterator, LSMTree
from repro.lsm.iterators import (
    DBIterator,
    KVIterator,
    MemTableIterator,
    RunMerge,
)
from repro.lsm.level_index import LevelModel, LevelModelManager
from repro.lsm.memtable import MemTable
from repro.lsm.options import Granularity, Options, small_test_options
from repro.lsm.record import (
    KIND_TOMBSTONE,
    KIND_VALUE,
    Record,
    decode_entry,
    encode_entry,
    entry_size,
    make_tombstone,
    make_value,
)
from repro.lsm.scrub import ScrubReport, TableScrubResult
from repro.lsm.sstable import Table, TableBuilder, TableIterator
from repro.lsm.version import FileMetaData, Version
from repro.lsm.wal import WriteAheadLog
from repro.lsm.write_batch import WriteBatch

__all__ = [
    "LSMTree",
    "Options",
    "Granularity",
    "small_test_options",
    "Record",
    "make_value",
    "make_tombstone",
    "encode_entry",
    "decode_entry",
    "entry_size",
    "KIND_VALUE",
    "KIND_TOMBSTONE",
    "MemTable",
    "BloomFilter",
    "WriteAheadLog",
    "WriteBatch",
    "ScrubReport",
    "TableScrubResult",
    "Table",
    "TableBuilder",
    "TableIterator",
    "FileMetaData",
    "Version",
    "Compactor",
    "CompactionTask",
    "CompactionOutcome",
    "LevelModel",
    "LevelModelManager",
    "KVIterator",
    "MemTableIterator",
    "RunMerge",
    "DBIterator",
    "LevelIterator",
]
