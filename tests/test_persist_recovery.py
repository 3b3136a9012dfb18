"""Recovery tests for the durable persistence layer.

Covers the acceptance bar of the persistence subsystem:

* a manifest-driven reopen performs **zero** index training and yields
  a Version and lookup results identical to the pre-close tree;
* a manifest truncated at *any* byte offset (record boundaries and torn
  tails alike) replays to the exact committed state at that point —
  simulated by snapshotting the device around every manifest append of
  a live workload;
* uncommitted garbage a crash leaves behind (orphan tables, superseded
  model sidecars, a half-finished manifest rewrite) is collected;
* a committed table that cannot open is quarantined by a committed
  edit, while a table the manifest names but the device lacks refuses
  the reopen;
* shards of a :class:`~repro.service.sharded.ShardedDB` recover
  independently: destroying one shard's manifest does not disturb the
  others.
"""

import random
import struct
import zlib

import pytest

from repro.errors import CorruptionError, PowerCutError, ReadOnlyModeError
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity, small_test_options
from repro.lsm.sstable import FOOTER_BYTES
from repro.persist.manifest import MANIFEST_NAME, MANIFEST_TMP_NAME
from repro.persist.models import MODEL_FILE_PREFIX
from repro.service.sharded import ShardedDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import (
    RECOVERY_FILES_GCED,
    QUARANTINED_TABLES,
    RECOVERY_MANIFEST_OPENS,
    RECOVERY_TORN_TABLES,
    TRAIN_KEY_VISITS,
    Stage,
)


def _fill(db, n=700, seed=11):
    rng = random.Random(seed)
    keys = rng.sample(range(1, 1 << 40), n)
    reference = {}
    for i, key in enumerate(keys):
        value = b"v%d" % i
        db.put(key, value)
        reference[key] = value
    for key in keys[:n // 12]:
        db.delete(key)
        del reference[key]
    return reference


def _all_items(db):
    cursor = db.iterator()
    cursor.seek_to_first()
    return cursor.take(1_000_000)


# -- the acceptance bar --------------------------------------------------

@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_manifest_reopen_trains_nothing_and_matches_oracle(granularity):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 granularity=granularity)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = _fill(db)
    db.flush()
    shape_before = [(row["level"], row["files"], row["entries"])
                    for row in db.describe_levels()]

    recovered = LSMTree.reopen(options, device)

    # Zero training during reopen: no key visits, no train-stage time.
    assert recovered.stats.get(TRAIN_KEY_VISITS) == 0
    assert recovered.stats.stage_time(Stage.COMPACT_TRAIN) == 0.0
    assert recovered.stats.stage_time(Stage.COMPACT_WRITE_MODEL) == 0.0
    # No data-block reads either: recovery is O(manifest), not O(data).
    assert recovered.stats.stage_time(Stage.COMPACT_READ) == 0.0
    assert recovered.stats.get(RECOVERY_MANIFEST_OPENS) == 1

    # Oracle equivalence: identical Version shape and identical reads.
    shape_after = [(row["level"], row["files"], row["entries"])
                   for row in recovered.describe_levels()]
    assert shape_after == shape_before
    for key, value in list(reference.items())[::7]:
        assert recovered.get(key) == value
    assert _all_items(recovered) == sorted(reference.items())
    recovered.close()


def test_reopen_without_model_sidecars_retrains_level_models():
    # The cost the sidecars avoid must actually exist without them.
    options = small_test_options(index_kind=IndexKind.PGM,
                                 granularity=Granularity.LEVEL)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = _fill(db)
    db.flush()
    assert db.version.deepest_nonempty_level() >= 1
    for name in device.list_files():
        if name.startswith(MODEL_FILE_PREFIX):
            device.delete(name)
    retrained = LSMTree.reopen(options, device)
    assert retrained.stats.get(RECOVERY_MANIFEST_OPENS) == 1
    assert retrained.stats.get(TRAIN_KEY_VISITS) > 0
    assert _all_items(retrained) == sorted(reference.items())
    # The retrain re-pointed the manifest: the next reopen loads.
    again = LSMTree.reopen(options, device)
    assert again.stats.get(TRAIN_KEY_VISITS) == 0
    assert _all_items(again) == sorted(reference.items())


def test_manifest_reopen_with_wal_recovers_unflushed_writes():
    options = small_test_options(enable_wal=True)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    for i in range(80):
        db.put(2000 + i, b"w%d" % i)
    db.flush()
    db.put(7777, b"unflushed")
    db.delete(2000)
    recovered = LSMTree.reopen(options, device)
    assert recovered.stats.get(RECOVERY_MANIFEST_OPENS) == 1
    assert recovered.get(7777) == b"unflushed"
    assert recovered.get(2000) is None
    # Sequences resumed past both manifest and WAL records.
    recovered.put(2001, b"fresh")
    assert recovered.get(2001) == b"fresh"
    recovered.close()


def test_checkpoint_compacts_manifest_to_one_record():
    options = small_test_options(index_kind=IndexKind.PGM,
                                 granularity=Granularity.LEVEL)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = _fill(db)
    long_manifest = device.size(MANIFEST_NAME)
    summary = db.checkpoint()
    assert device.size(MANIFEST_NAME) < long_manifest
    assert summary["files"] == db.version.file_count()
    assert summary["models_persisted"] >= 1
    recovered = LSMTree.reopen(options, device)
    assert recovered.stats.get(TRAIN_KEY_VISITS) == 0
    assert _all_items(recovered) == sorted(reference.items())
    recovered.close()


# -- crash consistency ---------------------------------------------------

class _SnapshottingDevice(MemoryBlockDevice):
    """Records (files, committed-reference) around every manifest append.

    The workload loop keeps ``reference`` up to date *before* calling
    into the database, so at the instant a version edit is appended the
    dictionary equals exactly the data the edit commits.
    """

    def __init__(self, reference, **kwargs):
        super().__init__(**kwargs)
        self.reference = reference
        self.pre = []    # device state just before each append (crash
        self.post = []   # during the append) / just after it
        self.committed = []  # reference at each append

    def _copy_files(self):
        return {name: bytes(buf) for name, buf in self._files.items()}

    def append(self, name, data):
        if name == MANIFEST_NAME:
            self.pre.append(self._copy_files())
        super().append(name, data)
        if name == MANIFEST_NAME:
            self.post.append(self._copy_files())
            self.committed.append(dict(self.reference))


def _device_from(files, block_size):
    device = MemoryBlockDevice(block_size=block_size)
    device._files = {name: bytearray(buf) for name, buf in files.items()}
    return device


def _run_crashy_workload(granularity):
    options = small_test_options(index_kind=IndexKind.PGM, value_capacity=8,
                                 granularity=granularity)
    reference = {}
    device = _SnapshottingDevice(reference, block_size=options.block_size)
    db = LSMTree(options, device=device)
    rng = random.Random(23)
    live = []
    for _ in range(900):
        if rng.random() < 0.85 or not live:
            key = rng.randrange(1 << 32)
            value = b"x%d" % (key & 0xFFF)
            reference[key] = value  # updated BEFORE the engine runs
            db.put(key, value)
            live.append(key)
        else:
            victim = live.pop(rng.randrange(len(live)))
            reference.pop(victim, None)
            db.delete(victim)
    return options, device


def _assert_recovers_to(options, files, expected):
    device = _device_from(files, options.block_size)
    recovered = LSMTree.reopen(options, device)
    assert recovered.stats.get(TRAIN_KEY_VISITS) == 0
    assert _all_items(recovered) == sorted(expected.items())
    # GC left exactly the live files + the persistence layer.
    live = {meta.name for _, meta in recovered.version.all_files()}
    for name in device.list_files():
        if name.startswith("sst-"):
            assert name in live, f"leaked table {name}"
        assert name != MANIFEST_TMP_NAME


@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_crash_at_every_manifest_record_boundary(granularity):
    """Replay from every pre/post-append device state is consistent.

    ``post[i]`` must recover to exactly the data committed by edit i;
    ``pre[i]`` (a crash *during* append i) must recover to the state of
    edit i-1, garbage-collecting whatever files edit i would have
    referenced.  This covers crash-mid-flush and crash-mid-compaction
    at every commit point of a real workload.
    """
    options, device = _run_crashy_workload(granularity)
    assert len(device.post) >= 8, "workload produced too few commits"
    for i in range(len(device.post)):
        _assert_recovers_to(options, device.post[i], device.committed[i])
        before = device.committed[i - 1] if i > 0 else {}
        _assert_recovers_to(options, device.pre[i], before)


@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_torn_manifest_tail_recovers_previous_commit(granularity):
    """A partially written final record must roll back one commit."""
    options, device = _run_crashy_workload(granularity)
    for i in range(1, len(device.post), 3):
        files = dict(device.post[i])
        prev_size = len(device.pre[i][MANIFEST_NAME])
        full = files[MANIFEST_NAME]
        for cut in (prev_size + 1, prev_size + 5, len(full) - 1):
            if not prev_size < cut < len(full):
                continue
            torn = dict(files)
            torn[MANIFEST_NAME] = full[:cut]
            _assert_recovers_to(options, torn,
                                device.committed[i - 1])


def test_torn_tail_is_truncated_so_later_commits_survive():
    """Edits appended after torn bytes would be lost to every replay;
    reopen must truncate the garbage before the session commits again."""
    options = small_test_options()
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = _fill(db, n=300)
    db.flush()
    device.append(MANIFEST_NAME, b"\x13torn-by-a-crash")  # torn tail

    second = LSMTree.reopen(options, device)
    for i in range(200):  # enough to flush new tables + commit edits
        second.put(10_000_000 + i, b"post-crash-%d" % i)
        reference[10_000_000 + i] = b"post-crash-%d" % i
    second.flush()

    third = LSMTree.reopen(options, device)
    assert third.stats.get(TRAIN_KEY_VISITS) == 0
    assert _all_items(third) == sorted(reference.items())
    third.close()


def test_wal_tail_sequences_survive_reopen():
    """A key rewritten in the WAL tail (seq beyond any table footer)
    must stay supersedable after reopen: the replayed sequence floor
    may not be clobbered back below the WAL's highest record."""
    options = small_test_options(enable_wal=True)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    db.put(1, b"a")
    db.flush()
    db.put(2, b"b-old")
    db.put(2, b"b-new")  # both live only in the WAL

    recovered = LSMTree.reopen(options, device)
    assert recovered.get(2) == b"b-new"
    recovered.put(2, b"b-v3")  # must get a seq above the WAL tail's
    assert recovered.get(2) == b"b-v3"
    recovered.flush()
    assert recovered.get(2) == b"b-v3"
    recovered.close()


def test_reopen_collects_uncommitted_garbage():
    options = small_test_options()
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = _fill(db, n=300)
    db.flush()
    # A crash can orphan compaction outputs, model sidecars and a
    # half-finished manifest rewrite; recovery must sweep them all.
    for name in ("sst-999999", MODEL_FILE_PREFIX + "L01-999999",
                 MANIFEST_TMP_NAME):
        device.create(name)
        device.append(name, b"orphaned-by-a-crash")
    recovered = LSMTree.reopen(options, device)
    assert recovered.stats.get(RECOVERY_FILES_GCED) == 3
    for name in ("sst-999999", MODEL_FILE_PREFIX + "L01-999999",
                 MANIFEST_TMP_NAME):
        assert not device.exists(name)
    assert _all_items(recovered) == sorted(reference.items())
    recovered.close()


def test_device_without_manifest_opens_empty_with_its_wal():
    """A crash inside the first flush's commit leaves a table no commit
    names and no manifest; the WAL, reset only after that commit, still
    holds every record, and the unnamed table is collected."""
    options = small_test_options(enable_wal=True)
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    reference = {key: b"w%d" % key for key in range(0, 150, 3)}
    for key, value in reference.items():
        db.put(key, value)

    def cut_power(edit):
        raise PowerCutError("power cut inside the first commit")

    db.manifest.append = cut_power
    with pytest.raises(ReadOnlyModeError):
        db.flush()
    assert not device.exists(MANIFEST_NAME)
    orphans = [name for name in device.list_files()
               if name.startswith("sst-")]
    assert orphans

    recovered = LSMTree.reopen(options, device)
    assert recovered.version.file_count() == 0
    assert recovered.stats.get(RECOVERY_FILES_GCED) == len(orphans)
    assert not any(device.exists(name) for name in orphans)
    assert _all_items(recovered) == sorted(reference.items())
    recovered.close()


def test_reopen_quarantines_a_table_sealed_in_another_format():
    """Old data is refused, never misread: a committed table whose
    intact footer names format 2 is set aside like a torn one, by a
    committed edit, and the rest of the device still recovers."""
    options = small_test_options()
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    _fill(db, n=400)
    db.flush()
    tables = sorted(name for name in device.list_files()
                    if name.startswith("sst-"))
    assert len(tables) > 1
    victim = tables[0]
    size = device.size(victim)
    raw = bytearray(device.pread(victim, 0, size))
    struct.pack_into("<I", raw, size - FOOTER_BYTES + 8, 2)
    struct.pack_into("<I", raw, size - 4,
                     zlib.crc32(bytes(raw[size - FOOTER_BYTES:size - 4])))
    device.create(victim)
    device.append(victim, bytes(raw))

    recovered = LSMTree.reopen(options, device)
    assert recovered.stats.get(RECOVERY_TORN_TABLES) == 1
    assert recovered.stats.get(QUARANTINED_TABLES) == 1
    assert recovered.health()["status"] == "degraded"
    assert device.exists("quar-" + victim)
    assert not device.exists(victim)
    assert recovered.version.file_count() == len(tables) - 1
    # The drop was committed: the next reopen no longer names it.
    again = LSMTree.reopen(options, device)
    assert again.stats.get(QUARANTINED_TABLES) == 0
    assert again.version.file_count() == len(tables) - 1
    again.close()


def test_manifest_naming_a_missing_table_refuses_to_open():
    """Rot inside the manifest must not become silent loss: a byte
    flipped in an early frame makes the manifest name a file a later
    commit deleted, and the reopen refuses instead of serving the
    prefix before the rotted frame."""
    options = small_test_options()
    device = MemoryBlockDevice(block_size=options.block_size)
    db = LSMTree(options, device=device)
    for key in range(1500):
        db.put(key, b"v%d" % key)
    db.flush()
    raw = bytearray(device.pread(MANIFEST_NAME, 0,
                                 device.size(MANIFEST_NAME)))
    raw[len(raw) // 3] ^= 0xFF
    device.create(MANIFEST_NAME)
    device.append(MANIFEST_NAME, bytes(raw))
    with pytest.raises(CorruptionError, match="missing file sst-"):
        LSMTree.reopen(options, device)


# -- sharded recovery ----------------------------------------------------

def _sharded_setup(num_shards=3):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 granularity=Granularity.LEVEL)
    devices = [MemoryBlockDevice(block_size=options.block_size)
               for _ in range(num_shards)]
    sdb = ShardedDB(num_shards=num_shards, options=options, devices=devices)
    rng = random.Random(5)
    reference = {}
    for i, key in enumerate(rng.sample(range(1, 1 << 40), 900)):
        value = b"s%d" % i
        sdb.put(key, value)
        reference[key] = value
    sdb.checkpoint()
    return options, devices, sdb, reference


def test_sharded_checkpoint_restore_is_retrain_free():
    options, devices, sdb, reference = _sharded_setup()
    restored = ShardedDB.reopen(len(devices), options, devices)
    assert restored.stats.get(TRAIN_KEY_VISITS) == 0
    assert restored.stats.get(RECOVERY_MANIFEST_OPENS) == len(devices)
    for key, value in list(reference.items())[::11]:
        assert restored.get(key) == value


def test_sharded_recovery_is_per_shard_independent():
    options, devices, sdb, reference = _sharded_setup()
    # Shard 0: garbage appended after the last commit — a torn tail
    # that recovery must shrug off without losing committed data.
    devices[0].append(MANIFEST_NAME, b"\x00\x01torn-garbage")
    # Shard 1: manifest destroyed mid-snapshot — that shard recovers
    # empty (its one intact prefix), the others are untouched.
    snap = devices[1].pread(MANIFEST_NAME, 0,
                            devices[1].size(MANIFEST_NAME))
    devices[1].create(MANIFEST_NAME)
    devices[1].append(MANIFEST_NAME, snap[:9])
    restored = ShardedDB.reopen(len(devices), options, devices)
    assert restored.stats.get(TRAIN_KEY_VISITS) == 0
    assert restored.shards[1].entry_count() == 0
    router = restored.router
    hits = misses = 0
    for key, value in reference.items():
        if router.shard_for(key) == 1:
            assert restored.get(key) is None
            misses += 1
        else:
            assert restored.get(key) == value
            hits += 1
    assert hits > 0 and misses > 0  # both populations exercised
