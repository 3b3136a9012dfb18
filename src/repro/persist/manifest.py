"""The MANIFEST: a crash-safe, append-only version-edit log.

Every structural change to the tree — a flush adding an L0 file, a
compaction atomically swapping inputs for outputs, a bulk ingest, a
model retrain moving a level's ``mdl-*`` pointer — is recorded as one
:class:`VersionEdit` inside one CRC-framed record::

    frame   := crc32(u32) | payload_len(u32) | payload
    payload := ( tag(u8) field... )*            # codec-encoded fields

Because an edit occupies exactly one frame, commits are atomic: a torn
append fails its CRC and replay stops at the last intact record,
exactly like the WAL.  The ordering discipline that makes this safe is
enforced by the callers: *new files are written before the edit that
references them, and obsolete files are deleted only after the edit
that drops them* — so any replayable prefix of the log names only files
that exist, and a crash can only leave unreferenced garbage (which
recovery garbage-collects), never dangling references.

The log is compacted by :meth:`Manifest.rewrite`: the full state is
written as a single snapshot edit into a temporary file which is then
atomically renamed over the manifest, so a crash mid-rewrite leaves the
old log untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CorruptionError
from repro.indexes import codec
from repro.storage.block_device import BlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.framing import frame, parse_frames
from repro.storage.stats import (
    MANIFEST_EDITS,
    MANIFEST_EDITS_REPLAYED,
    MANIFEST_SNAPSHOTS,
    MANIFEST_TORN_TAILS,
    Stage,
    Stats,
)

#: Device file name of the version-edit log.
MANIFEST_NAME = "manifest"
#: Scratch name used while rewriting (renamed over MANIFEST_NAME).
MANIFEST_TMP_NAME = "manifest.tmp"

# Field tags inside one edit payload (LevelDB's kComparator/kLogNumber/
# kNewFile scheme, reduced to what this engine needs).
_TAG_KIND = 1
_TAG_NEXT_FILE_NUMBER = 2
_TAG_LAST_SEQ = 3
_TAG_DELETE_FILE = 5
_TAG_MODEL_POINTER = 6
_TAG_ADD_FILE = 7          # 4 is retired (flat-format adds): never reuse

#: The one SSTable format version.  Table headers and footers and every
#: add-file record carry it; :mod:`repro.lsm.sstable` imports it from
#: here because persist sits below lsm in the layering.  A record or a
#: file naming any other version is refused, never reinterpreted.
TABLE_FORMAT = 3


@dataclass
class VersionEdit:
    """One atomic change to the version: the unit of manifest commit.

    ``adds`` and ``deletes`` hold ``(level, number, name)`` triples;
    ``model_pointers`` maps a level to the ``mdl-*`` sidecar
    holding its current learned model (the empty string clears the
    pointer, i.e. invalidates any previously persisted model for that
    level).
    """

    kind: str = ""
    next_file_number: Optional[int] = None
    last_seq: Optional[int] = None
    adds: List[Tuple[int, int, str]] = field(default_factory=list)
    deletes: List[Tuple[int, int, str]] = field(default_factory=list)
    model_pointers: Dict[int, str] = field(default_factory=dict)

    # -- construction helpers ------------------------------------------

    def add_file(self, level: int, number: int, name: str) -> None:
        """Record that ``name`` (file ``number``) joined ``level``."""
        self.adds.append((level, number, name))

    def delete_file(self, level: int, number: int, name: str) -> None:
        """Record that ``name`` (file ``number``) left ``level``."""
        self.deletes.append((level, number, name))

    def point_model(self, level: int, sidecar: str) -> None:
        """Point ``level`` at ``sidecar`` ("" invalidates the model)."""
        self.model_pointers[level] = sidecar

    @property
    def is_empty(self) -> bool:
        """True when the edit carries no information at all."""
        return (not self.adds and not self.deletes
                and not self.model_pointers
                and self.next_file_number is None
                and self.last_seq is None)

    # -- wire format ---------------------------------------------------

    def encode(self) -> bytes:
        """Serialise to the tagged payload format."""
        writer = codec.Writer()
        if self.kind:
            writer.put_u8(_TAG_KIND)
            writer.put_bytes(self.kind.encode("utf-8"))
        if self.next_file_number is not None:
            writer.put_u8(_TAG_NEXT_FILE_NUMBER)
            writer.put_u64(self.next_file_number)
        if self.last_seq is not None:
            writer.put_u8(_TAG_LAST_SEQ)
            writer.put_u64(self.last_seq)
        for level, number, name in self.adds:
            writer.put_u8(_TAG_ADD_FILE)
            writer.put_u32(level)
            writer.put_u64(number)
            writer.put_u32(TABLE_FORMAT)
            writer.put_bytes(name.encode("utf-8"))
        for level, number, name in self.deletes:
            writer.put_u8(_TAG_DELETE_FILE)
            writer.put_u32(level)
            writer.put_u64(number)
            writer.put_bytes(name.encode("utf-8"))
        for level in sorted(self.model_pointers):
            writer.put_u8(_TAG_MODEL_POINTER)
            writer.put_u32(level)
            writer.put_bytes(self.model_pointers[level].encode("utf-8"))
        return writer.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "VersionEdit":
        """Inverse of :meth:`encode`."""
        reader = codec.Reader(payload)
        edit = cls()
        while not reader.exhausted():
            tag = reader.get_u8()
            if tag == _TAG_KIND:
                edit.kind = reader.get_bytes().decode("utf-8")
            elif tag == _TAG_NEXT_FILE_NUMBER:
                edit.next_file_number = reader.get_u64()
            elif tag == _TAG_LAST_SEQ:
                edit.last_seq = reader.get_u64()
            elif tag == _TAG_ADD_FILE:
                level = reader.get_u32()
                number = reader.get_u64()
                format_version = reader.get_u32()
                name = reader.get_bytes().decode("utf-8")
                if format_version != TABLE_FORMAT:
                    raise CorruptionError(
                        f"manifest names {name} (#{number}) in table "
                        f"format {format_version}; only format "
                        f"{TABLE_FORMAT} is readable")
                edit.adds.append((level, number, name))
            elif tag == _TAG_DELETE_FILE:
                level = reader.get_u32()
                number = reader.get_u64()
                edit.deletes.append(
                    (level, number, reader.get_bytes().decode("utf-8")))
            elif tag == _TAG_MODEL_POINTER:
                level = reader.get_u32()
                edit.model_pointers[level] = (
                    reader.get_bytes().decode("utf-8"))
            else:
                raise CorruptionError(f"unknown manifest edit tag: {tag}")
        return edit


@dataclass
class ManifestState:
    """The accumulated result of replaying a manifest prefix."""

    #: file number -> (level, device file name) for every live file.
    files: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: level -> live ``mdl-*`` sidecar name.
    model_pointers: Dict[int, str] = field(default_factory=dict)
    next_file_number: int = 0
    last_seq: int = 0
    edits_applied: int = 0
    #: Replay found unreplayable bytes after the last intact record.
    #: The holder of the log must truncate them (rewrite a snapshot)
    #: before appending again — an append landing after torn bytes
    #: would be invisible to every future replay.
    torn: bool = False

    def apply(self, edit: VersionEdit) -> None:
        """Fold one edit into the state (replay step)."""
        for level, number, name in edit.deletes:
            if number not in self.files:
                raise CorruptionError(
                    f"manifest deletes unknown file {name} (#{number})")
            self.files.pop(number)
        for level, number, name in edit.adds:
            if number in self.files:
                raise CorruptionError(
                    f"manifest adds duplicate file {name} (#{number})")
            self.files[number] = (level, name)
        for level, sidecar in edit.model_pointers.items():
            if sidecar:
                self.model_pointers[level] = sidecar
            else:
                self.model_pointers.pop(level, None)
        if edit.next_file_number is not None:
            self.next_file_number = max(self.next_file_number,
                                        edit.next_file_number)
        if self.files:
            self.next_file_number = max(self.next_file_number,
                                        max(self.files))
        if edit.last_seq is not None:
            self.last_seq = max(self.last_seq, edit.last_seq)
        self.edits_applied += 1

    @property
    def is_empty(self) -> bool:
        """True when no intact edit was replayed."""
        return self.edits_applied == 0

    def live_names(self) -> set:
        """Every device file name the state references (data + models)."""
        names = {name for _, name in self.files.values()}
        names.update(sidecar for sidecar in self.model_pointers.values())
        return names


class Manifest:
    """The append-only version log of one database on one device."""

    def __init__(self, device: BlockDevice, *,
                 stats: Optional[Stats] = None,
                 cost: Optional[CostModel] = None) -> None:
        self.device = device
        self.stats = stats
        self.cost = cost

    # -- queries -------------------------------------------------------

    def exists(self) -> bool:
        """True when the log file is present on the device."""
        return self.device.exists(MANIFEST_NAME)

    def size_bytes(self) -> int:
        """Current log length (0 when absent)."""
        return self.device.size(MANIFEST_NAME) if self.exists() else 0

    # -- writing -------------------------------------------------------

    def append(self, edit: VersionEdit) -> None:
        """Durably append one edit as a single CRC frame."""
        if not self.device.exists(MANIFEST_NAME):
            self.device.create(MANIFEST_NAME)
        self.device.append(MANIFEST_NAME, frame(edit.encode()))
        if self.stats is not None:
            self.stats.add(MANIFEST_EDITS)

    def rewrite(self, snapshot: VersionEdit) -> None:
        """Compact the log to one snapshot edit, atomically.

        The snapshot is written to a scratch file and renamed over the
        manifest, so a crash at any point leaves either the old log or
        the new one — never a half-written manifest.
        """
        self.device.create(MANIFEST_TMP_NAME)
        self.device.append(MANIFEST_TMP_NAME, frame(snapshot.encode()))
        self.device.rename(MANIFEST_TMP_NAME, MANIFEST_NAME)
        if self.stats is not None:
            self.stats.add(MANIFEST_SNAPSHOTS)

    # -- replay --------------------------------------------------------

    def replay(self) -> ManifestState:
        """Reconstruct the state from every intact record.

        A torn or corrupt tail (short frame, CRC mismatch) ends the
        replay silently: the state reflects the longest intact prefix
        and ``state.torn`` is set so the caller can truncate the
        garbage (via :meth:`rewrite`) before appending again.  Replay
        reads bypass any block-cache tier — the log is read once at
        open and never again.
        """
        state = ManifestState()
        if not self.exists():
            return state
        data = self.device.pread_uncached(MANIFEST_NAME, 0,
                                          self.device.size(MANIFEST_NAME))
        if self.stats is not None and self.cost is not None:
            nblocks = self.cost.blocks_spanned(0, len(data))
            self.stats.charge(Stage.RECOVERY, self.cost.read_us(nblocks))
        payloads, torn = parse_frames(data)
        for payload in payloads:
            state.apply(VersionEdit.decode(payload))
        state.torn = torn
        if self.stats is not None:
            self.stats.add(MANIFEST_EDITS_REPLAYED, state.edits_applied)
            if torn:
                self.stats.add(MANIFEST_TORN_TAILS)
        return state
