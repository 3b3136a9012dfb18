"""Scrub: verification, table rewrite, quarantine and manifest commit."""

import pytest

from repro.errors import PowerCutError, QuarantinedBlockError
from repro.indexes.registry import IndexKind
from repro.lsm.options import Granularity, small_test_options
from repro.lsm.db import QUARANTINE_PREFIX, LSMTree
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.faults import FaultPlan, FaultyBlockDevice
from repro.storage.stats import (
    RECOVERY_FILES_GCED,
    SCRUB_BLOCKS_BAD,
    SCRUB_BLOCKS_CHECKED,
    SCRUB_ENTRIES_LOST,
    SCRUB_TABLES_CHECKED,
    SCRUB_TABLES_QUARANTINED,
    SCRUB_TABLES_REWRITTEN,
)


def _build(n=2000, granularity=Granularity.FILE, **changes):
    options = small_test_options(index_kind=IndexKind.PGM,
                                 granularity=granularity,
                                 enable_wal=True, **changes)
    inner = MemoryBlockDevice(block_size=options.block_size)
    faulty = FaultyBlockDevice(inner, FaultPlan(seed=9))
    db = LSMTree(options, device=faulty)
    keys = list(range(n))
    db.bulk_ingest(keys)
    return db, faulty, options, keys


def _expected(options, key):
    return (b"v%x" % key)[: options.value_capacity]


def _rot_data_block(faulty, table, block_no):
    """Force rot into the device block holding one data block's bytes."""
    _, offset, _, _ = table.handles[block_no]
    faulty.inject_rot(table.name, offset // faulty.block_size)


def test_clean_database_scrubs_clean():
    db, _, _, _ = _build()
    report = db.scrub()
    assert report.clean
    assert report.tables_checked == db.version.file_count()
    assert report.blocks_checked > 0
    assert report.tables_rewritten == 0
    assert report.entries_lost == 0
    assert db.stats.get(SCRUB_TABLES_CHECKED) == report.tables_checked
    assert db.stats.get(SCRUB_BLOCKS_CHECKED) == report.blocks_checked
    assert db.stats.get(SCRUB_BLOCKS_BAD) == 0


def test_scrub_rewrites_damaged_table_and_accounts_loss():
    db, faulty, options, keys = _build()
    level, meta = db.version.all_files()[0]
    old_name = meta.table.name
    _rot_data_block(faulty, meta.table, 1)
    report = db.scrub()
    assert not report.clean
    assert report.tables_rewritten == 1
    assert report.blocks_bad == 1
    assert report.entries_lost > 0
    assert db.stats.get(SCRUB_TABLES_REWRITTEN) == 1
    assert db.stats.get(SCRUB_ENTRIES_LOST) == report.entries_lost
    damaged = [t for t in report.tables if t.action == "rewritten"]
    assert damaged[0].name == old_name
    assert damaged[0].rewritten_as is not None
    # The damaged original is gone; the replacement serves.
    assert not db.device.exists(old_name)
    missing = sum(1 for key in keys
                  if db.get(key) != _expected(options, key))
    assert missing == report.entries_lost
    # A second pass finds a healthy database.
    assert db.scrub().clean
    assert db.health()["status"] == "ok"


def test_scrub_survives_reopen_from_manifest():
    db, faulty, options, keys = _build()
    level, meta = db.version.all_files()[0]
    _rot_data_block(faulty, meta.table, 0)
    report = db.scrub()
    lost = report.entries_lost
    assert lost > 0
    reopened = LSMTree.reopen(options, db.device)
    missing = sum(1 for key in keys
                  if reopened.get(key) != _expected(options, key))
    assert missing == lost
    assert reopened.scrub().clean


@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_scrub_retrains_indexes_for_the_rewritten_table(granularity):
    db, faulty, options, keys = _build(granularity=granularity)
    picked = next((lv, m) for lv, m in db.version.all_files() if lv >= 1)
    level, meta = picked
    _rot_data_block(faulty, meta.table, len(meta.table.handles) // 2)
    report = db.scrub()
    assert report.tables_rewritten == 1
    # Every surviving key is still *findable* — the rewritten table's
    # (or level's) index covers the new, shorter file correctly.
    lost = report.entries_lost
    missing = sum(1 for key in keys
                  if db.get(key) != _expected(options, key))
    assert missing == lost


def test_scrub_quarantines_hopeless_table():
    db, faulty, options, keys = _build()
    level, meta = db.version.all_files()[0]
    victim = meta.table
    # Flip a byte inside *every* data block — rot alone flips only one
    # bit per device block, which can miss blocks that share one.
    raw = faulty.inner._files[victim.name]
    for _, offset, stored_len, _ in victim.handles:
        raw[offset + stored_len // 2] ^= 0xFF
    entry_count = victim.entry_count
    old_name = victim.name
    report = db.scrub()
    assert report.tables_quarantined == 1
    assert report.entries_lost == entry_count
    assert db.stats.get(SCRUB_TABLES_QUARANTINED) == 1
    # The file survives under the quarantine prefix for forensics and
    # is no longer part of the version.
    assert db.device.exists(QUARANTINE_PREFIX + old_name)
    assert all(m.table.name != old_name
               for _, m in db.version.all_files())
    assert db.health()["quarantined_tables"] == 1
    assert db.health()["status"] == "degraded"
    # Reads of the lost keys miss cleanly; everything else serves.
    missing = sum(1 for key in keys
                  if db.get(key) != _expected(options, key))
    assert missing == entry_count
    # The quarantined original survives a manifest reopen's GC.
    reopened = LSMTree.reopen(options, db.device)
    assert reopened.device.exists(QUARANTINE_PREFIX + old_name)


def test_scrub_recovers_stale_quarantine_after_medium_replacement():
    db, faulty, options, keys = _build(n=3000)
    # Rate-based rot poisons reads; quarantines accumulate.
    faulty.plan = FaultPlan(seed=9, bit_rot_rate=0.05)
    failed = 0
    for key in keys:
        try:
            db.get(key)
        except QuarantinedBlockError:
            failed += 1
    assert failed > 0
    # "Replace the medium": rot off.  Scrub now re-reads the previously
    # quarantined blocks clean and recovers every entry.
    faulty.plan = FaultPlan(seed=9)
    report = db.scrub()
    assert report.tables_rewritten > 0
    assert report.entries_lost == 0
    assert db.scrub().clean
    assert db.health()["status"] == "ok"
    assert all(db.get(key) == _expected(options, key) for key in keys)


def _flip_block(faulty, table, block_no):
    """Flip one byte in the middle of one stored data block."""
    _, offset, stored_len, _ = table.handles[block_no]
    faulty.inner._files[table.name][offset + stored_len // 2] ^= 0xFF


def _middle_of_widest_level(db):
    level = max(range(1, db.options.max_levels), key=db.version.file_count)
    files = db.version.levels[level]
    assert len(files) >= 3
    return level, files[len(files) // 2]


@pytest.mark.parametrize("action", ["quarantined", "rewritten"])
@pytest.mark.parametrize("granularity",
                         [Granularity.FILE, Granularity.LEVEL])
def test_scrub_of_a_middle_file_keeps_every_other_key_readable(granularity,
                                                              action):
    db, faulty, options, keys = _build(granularity=granularity)
    level, meta = _middle_of_widest_level(db)
    table = meta.table
    level_keys = db.last_ingest_levels[level]
    # A get on the level first, so its file fences are cached.
    assert db.get(level_keys[0]) == _expected(options, level_keys[0])
    if action == "quarantined":
        for block_no in range(len(table.handles)):
            _flip_block(faulty, table, block_no)
        lost_lo, lost_hi = table.min_key, table.max_key
    else:
        block_no = len(table.handles) // 2
        _flip_block(faulty, table, block_no)
        lost_lo = table.handles[block_no][0]
        lost_hi = table.handles[block_no + 1][0] - 1
    report = db.scrub()
    assert [t.action for t in report.tables if t.damaged] == [action]
    lost = {key for key in level_keys if lost_lo <= key <= lost_hi}
    assert report.entries_lost == len(lost)

    def assert_reads(tree):
        for key in keys:
            want = None if key in lost else _expected(options, key)
            assert tree.get(key) == want, key

    assert_reads(db)
    assert_reads(LSMTree.reopen(options, db.device))


@pytest.mark.parametrize("granularity,action", [
    (Granularity.FILE, "rewritten"), (Granularity.LEVEL, "rewritten"),
    (Granularity.FILE, "quarantined"), (Granularity.LEVEL, "quarantined"),
], ids=["file", "level", "file-quarantined", "level-quarantined"])
def test_power_cut_on_the_scrub_commit_reopens_the_version_before_it(
        granularity, action):
    db, faulty, options, keys = _build(granularity=granularity)
    level, meta = _middle_of_widest_level(db)
    table = meta.table
    if action == "quarantined":
        for block_no in range(len(table.handles)):
            _flip_block(faulty, table, block_no)
        lost_lo, lost_hi = table.min_key, table.max_key
    else:
        _flip_block(faulty, table, 0)
        lost_lo, lost_hi = table.min_key, table.handles[1][0] - 1
    before = [(lv, m.number, m.name) for lv, m in db.version.all_files()]
    tables_before = sorted(name for name in faulty.inner.list_files()
                           if name.startswith("sst-"))
    append = db.manifest.append

    def cut_inside_the_scrub_commit(edit):
        if edit.kind == "scrub":
            # The next append (this edit's frame) crosses the budget.
            faulty.plan = FaultPlan(
                seed=9, power_cut_after_bytes=faulty._appended + 3)
        append(edit)

    db.manifest.append = cut_inside_the_scrub_commit
    with pytest.raises(PowerCutError):
        db.scrub()
    if action == "rewritten":
        # The replacement table was written before the commit was cut.
        assert sorted(name for name in faulty.inner.list_files()
                      if name.startswith("sst-")) != tables_before
    faulty.revive()
    reopened = LSMTree.reopen(options, faulty)
    assert [(lv, m.number, m.name)
            for lv, m in reopened.version.all_files()] == before
    if action == "rewritten" or granularity is Granularity.LEVEL:
        # The replacement table or the retrained level model is GCed.
        assert reopened.stats.get(RECOVERY_FILES_GCED) >= 1
    assert sorted(name for name in faulty.inner.list_files()
                  if name.startswith("sst-")) == tables_before
    # The damaged original is back under its name; a fresh scrub
    # repairs it.
    report = reopened.scrub()
    assert [t.action for t in report.tables if t.damaged] == [action]
    lost = {key for key in db.last_ingest_levels[level]
            if lost_lo <= key <= lost_hi}
    assert report.entries_lost == len(lost)
    for key in keys:
        want = None if key in lost else _expected(options, key)
        assert reopened.get(key) == want, key


def test_scrub_detects_metadata_rot():
    db, faulty, options, keys = _build()
    level, meta = db.version.all_files()[0]
    table = meta.table
    # Rot the device block holding the table's learned-index region.
    faulty.inject_rot(table.name,
                      table.footer.index_offset // faulty.block_size)
    report = db.scrub()
    damaged = [t for t in report.tables if t.damaged]
    assert len(damaged) == 1
    assert damaged[0].bad_regions  # named the broken region
    assert damaged[0].action == "rewritten"
    assert damaged[0].entries_lost == 0  # data blocks were all fine
    assert db.scrub().clean
