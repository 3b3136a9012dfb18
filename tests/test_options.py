"""Tests for Options validation and derived quantities."""

import pytest

from repro.errors import InvalidOptionError
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import Granularity, Options, small_test_options
from repro.storage.block_device import MemoryBlockDevice


def test_defaults_validate():
    options = Options()
    options.validate()
    assert options.entry_bytes == 1024
    assert options.size_ratio == 10
    assert options.bloom_bits_per_key == 10


def test_derived_counts():
    options = Options(value_capacity=44, write_buffer_bytes=64 * 64,
                      sstable_bytes=128 * 64)
    assert options.entry_bytes == 64
    assert options.entries_per_buffer == 64
    assert options.entries_per_sstable == 128


def test_level_capacities_geometric():
    options = Options(size_ratio=10)
    assert options.level_capacity_bytes(2) == \
        options.level_capacity_bytes(1) * 10
    assert options.level_capacity_bytes(0) == \
        options.l0_compaction_trigger * options.write_buffer_bytes


@pytest.mark.parametrize("field,value", [
    ("position_boundary", 1),
    ("size_ratio", 1),
    ("value_capacity", -1),
    ("block_size", 32),
    ("bloom_bits_per_key", -1),
    ("max_levels", 1),
    ("l0_compaction_trigger", 0),
])
def test_invalid_fields_rejected(field, value):
    options = Options(**{field: value})
    with pytest.raises(InvalidOptionError):
        options.validate()


@pytest.mark.parametrize("kind,field,value", [
    (IndexKind.RS, "radix_bits", 0),
    (IndexKind.RS, "radix_bits", 25),
    (IndexKind.PGM, "epsilon_recursive", 0),
])
def test_bad_index_parameters_rejected_before_open(kind, field, value):
    """A bad index parameter fails at open, not at the first flush."""
    options = small_test_options(kind).with_changes(**{field: value})
    with pytest.raises(InvalidOptionError, match=field):
        options.validate()
    device = MemoryBlockDevice()
    with pytest.raises(InvalidOptionError, match=field):
        LSMTree(options, device=device)
    assert device.list_files() == []


def test_sstable_must_hold_one_entry():
    options = Options(value_capacity=4096, sstable_bytes=1024)
    with pytest.raises(InvalidOptionError):
        options.validate()


def test_buffer_must_hold_one_entry():
    options = Options(value_capacity=4096, write_buffer_bytes=128,
                      sstable_bytes=1 << 20)
    with pytest.raises(InvalidOptionError):
        options.validate()


def test_with_changes_is_functional():
    base = Options()
    changed = base.with_changes(position_boundary=64,
                                index_kind=IndexKind.PGM)
    assert changed.position_boundary == 64
    assert changed.index_kind is IndexKind.PGM
    assert base.position_boundary == 32  # untouched


def test_make_index_factory_reflects_options():
    options = Options(index_kind=IndexKind.RS, position_boundary=16,
                      radix_bits=4)
    factory = options.make_index_factory()
    assert factory.kind is IndexKind.RS
    assert factory.boundary == 16
    assert factory.radix_bits == 4


def test_small_test_options_shape():
    options = small_test_options()
    assert options.entry_bytes == 64
    assert options.entries_per_buffer == 64
    assert options.entries_per_sstable == 128
    assert options.granularity is Granularity.FILE


def test_granularity_enum_strings():
    assert str(Granularity.FILE) == "file"
    assert Granularity("level") is Granularity.LEVEL
