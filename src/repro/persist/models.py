"""Durable learned-index models: the ``mdl-*`` sidecar files.

Per-*table* models already live inside their table file (the
type-tagged codec payload between the data and bloom segments, offsets
in the footer), so they survive restarts for free.  Per-*level* models
(:mod:`repro.lsm.level_index`) had no on-disk home: the seed engine
retrained them from a full key reload on every open — the dominant
restart cost the paper's Table 1 / Figure 9 attribute to training.

A :class:`ModelStore` gives level models the same lifecycle: whenever a
level model is (re)trained, its serialized payload — the exact bytes
:func:`repro.indexes.registry.deserialize_index` reconstructs from — is
written to a fresh ``mdl-L<level>-<epoch>`` file::

    sidecar := crc32(u32) | payload_len(u32) | payload

The manifest's model-pointer records name the live sidecar per level;
superseded sidecars are deleted only after the pointing edit commits,
and recovery garbage-collects any sidecar no pointer names.  A missing
or corrupt sidecar is never fatal: :meth:`ModelStore.load` returns
``None`` and the caller falls back to retraining that one level.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.block_device import BlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.framing import frame, parse_single_frame
from repro.storage.stats import (
    MODEL_BYTES_PERSISTED,
    MODELS_LOADED,
    MODELS_PERSISTED,
    Stage,
    Stats,
)

#: Every sidecar name starts with this (recovery GC keys off it).
MODEL_FILE_PREFIX = "mdl-"


class ModelStore:
    """Writes, loads and retires ``mdl-*`` sidecars on one device."""

    def __init__(self, device: BlockDevice, *,
                 stats: Optional[Stats] = None,
                 cost: Optional[CostModel] = None) -> None:
        self.device = device
        self.stats = stats
        self.cost = cost
        # Resume the epoch counter past any surviving sidecar so names
        # never collide across restarts.
        self._epoch = 0
        for name in device.list_files():
            if name.startswith(MODEL_FILE_PREFIX):
                try:
                    self._epoch = max(self._epoch,
                                      int(name.rsplit("-", 1)[-1]))
                except ValueError:
                    continue

    # -- naming --------------------------------------------------------

    @staticmethod
    def _name(level: int, epoch: int) -> str:
        return f"{MODEL_FILE_PREFIX}L{level:02d}-{epoch:06d}"

    # -- writing -------------------------------------------------------

    def save(self, level: int, payload: bytes) -> str:
        """Persist one serialized model; returns the sidecar name.

        The write lands in a *new* file (never overwriting the live
        sidecar), so the previous model stays valid until the manifest
        edit repointing the level commits.
        """
        self._epoch += 1
        name = self._name(level, self._epoch)
        self.device.create(name)
        self.device.append(name, frame(payload))
        if self.stats is not None:
            self.stats.add(MODELS_PERSISTED)
            self.stats.add(MODEL_BYTES_PERSISTED, len(payload))
        return name

    def delete(self, name: str) -> None:
        """Drop a superseded sidecar (missing files are ignored)."""
        if self.device.exists(name):
            self.device.delete(name)

    # -- loading -------------------------------------------------------

    def load(self, name: Optional[str]) -> Optional[bytes]:
        """Read one sidecar's payload; None when absent or corrupt.

        Corruption is detected by the CRC, so a torn sidecar write
        degrades to a retrain of that level rather than a wrong model.
        Reads bypass the block cache: a model is deserialized once at
        open and the raw bytes never read again.
        """
        if not name or not self.device.exists(name):
            return None
        size = self.device.size(name)
        data = self.device.pread_uncached(name, 0, size)
        payload = parse_single_frame(data)
        if payload is None:
            return None
        if self.stats is not None:
            self.stats.add(MODELS_LOADED)
            if self.cost is not None:
                nblocks = self.cost.blocks_spanned(0, size)
                self.stats.charge(Stage.RECOVERY, self.cost.read_us(nblocks))
        return payload
