"""Unit tests for the MANIFEST version log and the model sidecar store."""

import struct

import pytest

from repro.errors import CorruptionError
from repro.indexes import codec
from repro.persist.manifest import (
    MANIFEST_NAME,
    Manifest,
    ManifestState,
    VersionEdit,
)
from repro.persist.models import MODEL_FILE_PREFIX, ModelStore
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.stats import (
    MANIFEST_EDITS,
    MANIFEST_TORN_TAILS,
    Stats,
)


def _device():
    return MemoryBlockDevice(block_size=256)


def _edit(**kwargs):
    edit = VersionEdit(**{k: v for k, v in kwargs.items()
                          if k in ("kind", "next_file_number", "last_seq")})
    for triple in kwargs.get("adds", ()):
        edit.add_file(*triple)
    for triple in kwargs.get("deletes", ()):
        edit.delete_file(*triple)
    for level, name in kwargs.get("pointers", {}).items():
        edit.point_model(level, name)
    return edit


# -- wire format ---------------------------------------------------------

def test_version_edit_roundtrip():
    edit = _edit(kind="compaction", next_file_number=42, last_seq=9000,
                 adds=[(2, 7, "sst-000007"), (2, 8, "sst-000008")],
                 deletes=[(1, 3, "sst-000003")],
                 pointers={2: "mdl-L02-000005", 1: ""})
    decoded = VersionEdit.decode(edit.encode())
    assert decoded == edit


def test_empty_edit_roundtrip():
    edit = VersionEdit()
    assert edit.is_empty
    assert VersionEdit.decode(edit.encode()) == edit


def test_unknown_tag_raises():
    with pytest.raises(CorruptionError):
        VersionEdit.decode(b"\xff")


def _add_file_payload(tag, format_version=None):
    """A hand-built add-file record: tag u8 | level u32 | number u64 |
    [format u32] | name bytes."""
    writer = codec.Writer()
    writer.put_u8(tag)
    writer.put_u32(1)
    writer.put_u64(7)
    if format_version is not None:
        writer.put_u32(format_version)
    writer.put_bytes(b"sst-000007")
    return writer.getvalue()


def test_legacy_and_foreign_format_add_records_are_refused():
    # Tag 4 was the flat-format add (no format field); tag 7 carries a
    # format slot that must name the one readable format.
    with pytest.raises(CorruptionError):
        VersionEdit.decode(_add_file_payload(4))
    for foreign in (1, 2, 4):
        with pytest.raises(CorruptionError) as excinfo:
            VersionEdit.decode(_add_file_payload(7, foreign))
        assert "sst-000007" in str(excinfo.value)
    decoded = VersionEdit.decode(_add_file_payload(7, 3))
    assert decoded.adds == [(1, 7, "sst-000007")]


def test_add_file_format_version_roundtrip():
    # Same tag and same widths as before the format became v3 (so
    # manifest bytes and write_amp did not move); the slot is always 3.
    edit = VersionEdit()
    edit.add_file(1, 7, "sst-000007")
    assert edit.encode() == _add_file_payload(7, 3)
    assert VersionEdit.decode(edit.encode()) == edit


# -- state accumulation --------------------------------------------------

def test_state_applies_adds_deletes_and_pointers():
    state = ManifestState()
    state.apply(_edit(adds=[(0, 1, "sst-000001")], last_seq=10,
                      next_file_number=1))
    state.apply(_edit(adds=[(0, 2, "sst-000002")], last_seq=20,
                      next_file_number=2))
    state.apply(_edit(deletes=[(0, 1, "sst-000001"),
                               (0, 2, "sst-000002")],
                      adds=[(1, 3, "sst-000003")],
                      pointers={1: "mdl-L01-000001"}))
    assert state.files == {3: (1, "sst-000003")}
    assert state.model_pointers == {1: "mdl-L01-000001"}
    assert state.last_seq == 20
    assert state.next_file_number == 3  # tracks the max file number seen
    state.apply(_edit(pointers={1: ""}))
    assert state.model_pointers == {}
    assert state.live_names() == {"sst-000003"}


def test_state_rejects_inconsistent_edits():
    state = ManifestState()
    state.apply(_edit(adds=[(0, 1, "sst-000001")]))
    with pytest.raises(CorruptionError):
        state.apply(_edit(adds=[(1, 1, "sst-000001")]))  # duplicate number
    with pytest.raises(CorruptionError):
        state.apply(_edit(deletes=[(0, 9, "sst-000009")]))  # unknown file


# -- log append / replay -------------------------------------------------

def test_append_and_replay():
    device = _device()
    stats = Stats()
    manifest = Manifest(device, stats=stats)
    assert not manifest.exists()
    assert manifest.replay().is_empty
    manifest.append(_edit(adds=[(0, 1, "sst-000001")], last_seq=5))
    manifest.append(_edit(adds=[(0, 2, "sst-000002")], last_seq=9))
    state = manifest.replay()
    assert state.files == {1: (0, "sst-000001"),
                           2: (0, "sst-000002")}
    assert state.last_seq == 9
    assert state.edits_applied == 2
    assert stats.get(MANIFEST_EDITS) == 2


def test_replay_tolerates_torn_tail_at_every_truncation_point():
    device = _device()
    manifest = Manifest(device)
    boundaries = [0]
    for i in range(1, 6):
        manifest.append(_edit(adds=[(0, i, f"sst-{i:06d}")], last_seq=i))
        boundaries.append(device.size(MANIFEST_NAME))
    full = device.pread(MANIFEST_NAME, 0, device.size(MANIFEST_NAME))
    for cut in range(len(full) + 1):
        truncated = _device()
        truncated.create(MANIFEST_NAME)
        truncated.append(MANIFEST_NAME, full[:cut])
        state = Manifest(truncated).replay()
        # The replay must land exactly on the last intact record.
        intact = max(i for i, end in enumerate(boundaries) if end <= cut)
        assert state.edits_applied == intact
        assert set(state.files) == set(range(1, intact + 1))


def test_replay_stops_at_crc_corruption():
    device = _device()
    stats = Stats()
    manifest = Manifest(device, stats=stats)
    manifest.append(_edit(adds=[(0, 1, "sst-000001")]))
    first_end = device.size(MANIFEST_NAME)
    manifest.append(_edit(adds=[(0, 2, "sst-000002")]))
    # Flip one payload byte of the second frame.
    raw = bytearray(device.pread(MANIFEST_NAME, 0,
                                 device.size(MANIFEST_NAME)))
    raw[first_end + struct.calcsize("<II")] ^= 0xFF
    device.create(MANIFEST_NAME)
    device.append(MANIFEST_NAME, bytes(raw))
    state = manifest.replay()
    assert state.files == {1: (0, "sst-000001")}
    assert stats.get(MANIFEST_TORN_TAILS) == 1


def test_rewrite_compacts_log_and_preserves_state():
    device = _device()
    manifest = Manifest(device)
    for i in range(1, 30):
        manifest.append(_edit(adds=[(0, i, f"sst-{i:06d}")], last_seq=i))
        if i > 1:
            manifest.append(_edit(deletes=[(0, i - 1, f"sst-{i - 1:06d}")]))
    before = manifest.replay()
    long_size = manifest.size_bytes()
    snapshot = VersionEdit(kind="checkpoint", last_seq=before.last_seq,
                           next_file_number=before.next_file_number)
    for number, (level, name) in before.files.items():
        snapshot.add_file(level, number, name)
    manifest.rewrite(snapshot)
    after = manifest.replay()
    assert after.files == before.files
    assert after.last_seq == before.last_seq
    assert after.next_file_number == before.next_file_number
    assert manifest.size_bytes() < long_size
    assert not device.exists("manifest.tmp")


# -- model sidecars ------------------------------------------------------

def test_model_store_roundtrip_and_epochs():
    device = _device()
    store = ModelStore(device)
    payload = b"\x07" + bytes(range(64))
    name = store.save(2, payload)
    assert name.startswith(MODEL_FILE_PREFIX)
    assert store.load(name) == payload
    second = store.save(2, payload)
    assert second != name  # fresh epoch, never overwrites
    # A new store on the same device resumes past surviving epochs.
    resumed = ModelStore(device)
    third = resumed.save(2, payload)
    assert third not in (name, second)


def test_model_store_corruption_returns_none():
    device = _device()
    store = ModelStore(device)
    name = store.save(1, b"payload-bytes")
    raw = bytearray(device.pread(name, 0, device.size(name)))
    raw[-1] ^= 0x1
    device.create(name)
    device.append(name, bytes(raw))
    assert store.load(name) is None
    assert store.load("mdl-L09-000099") is None  # missing file
    assert store.load(None) is None
    assert store.load("") is None


def test_model_store_delete_is_idempotent():
    device = _device()
    store = ModelStore(device)
    name = store.save(1, b"x")
    store.delete(name)
    store.delete(name)  # second delete of a missing sidecar is a no-op
    assert not device.exists(name)
