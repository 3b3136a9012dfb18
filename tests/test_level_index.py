"""Tests for the level-granularity model manager."""

from repro.indexes.registry import IndexFactory, IndexKind
from repro.lsm.level_index import LevelModelManager
from repro.lsm.options import small_test_options
from repro.lsm.record import make_value
from repro.lsm.sstable import TableBuilder
from repro.lsm.version import FileMetaData
from repro.persist.models import ModelStore
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.stats import BLOCKS_READ, Stage, Stats


def _make_files(chunks):
    options = small_test_options()
    stats = Stats()
    device = MemoryBlockDevice(block_size=options.block_size, stats=stats)
    cost = CostModel(block_size=options.block_size)
    manager = LevelModelManager(IndexFactory(IndexKind.PGM, 8), stats, cost,
                                ModelStore(device))
    files = []
    for number, keys in enumerate(chunks, start=1):
        builder = TableBuilder(device, f"f{number}", options, None, stats,
                               cost)
        for i, key in enumerate(keys):
            builder.add(make_value(key, i + 1, b"v%d" % key))
        table = builder.finish()
        manager.register_keys(table.name, table.cached_keys)
        files.append(FileMetaData(number=number, table=table))
    return manager, files, stats


def test_rebuild_and_lookup():
    chunks = [list(range(0, 300, 3)), list(range(300, 600, 3)),
              list(range(600, 900, 3))]
    manager, files, _ = _make_files(chunks)
    manager.rebuild(1, files)
    model = manager.model_for(1)
    assert model is not None
    assert model.total_entries == sum(len(chunk) for chunk in chunks)
    # Every key resolvable through the per-file bounds.
    for chunk, meta in zip(chunks, files):
        for key in chunk[::17]:
            pairs = manager.lookup(1, key)
            assert pairs
            hit = [bound for m, bound in pairs if m.number == meta.number]
            assert hit, f"key {key} not mapped to its file"
            local = chunk.index(key)
            assert hit[0].lo <= local < hit[0].hi


def test_bound_spanning_files():
    """A predicted range crossing a file edge yields bounds in both files."""
    chunks = [list(range(0, 100)), list(range(100, 200))]
    manager, files, _ = _make_files(chunks)
    manager.rebuild(1, files)
    pairs = manager.lookup(1, 99)
    names = [meta.number for meta, _ in pairs]
    assert 1 in names  # file containing the key always included
    for meta, bound in pairs:
        assert 0 <= bound.lo < bound.hi <= meta.entry_count


def test_memory_accounting():
    chunks = [list(range(0, 1000, 2))]
    manager, files, _ = _make_files(chunks)
    assert manager.memory_bytes() == 0
    manager.rebuild(1, files)
    assert manager.memory_bytes() > 0
    assert manager.memory_bytes(1) == manager.memory_bytes()
    assert manager.memory_bytes(2) == 0


def test_rebuild_empty_level_drops_model():
    chunks = [list(range(100))]
    manager, files, _ = _make_files(chunks)
    manager.rebuild(1, files)
    assert manager.model_for(1) is not None
    manager.rebuild(1, [])
    assert manager.model_for(1) is None
    assert manager.lookup(1, 5) == []


def test_rebuild_charges_training():
    chunks = [list(range(0, 2000, 2))]
    manager, files, stats = _make_files(chunks)
    before = stats.stage_time(Stage.COMPACT_TRAIN)
    manager.rebuild(1, files)
    assert stats.stage_time(Stage.COMPACT_TRAIN) > before
    assert stats.stage_time(Stage.COMPACT_WRITE_MODEL) > 0


def test_unregistered_keys_reload_lazily_exactly_once():
    # Recovery opens tables without registered key arrays; a rebuild
    # must pull them from the device — one read per table, cached.
    chunks = [list(range(100))]
    manager, files, stats = _make_files(chunks)
    manager.forget_keys(files[0].name)
    files[0].table.release_keys()
    before = stats.get(BLOCKS_READ)
    manager.rebuild(1, files)
    assert stats.get(BLOCKS_READ) > before, "expected a lazy key reload"
    assert manager.model_for(1) is not None
    # The reloaded array is cached: a second rebuild reads nothing.
    before = stats.get(BLOCKS_READ)
    manager.rebuild(1, files)
    assert stats.get(BLOCKS_READ) == before
