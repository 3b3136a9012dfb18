"""Level-granularity learned indexes (Dai et al.'s *LevelModel*).

The paper's third configuration axis is index granularity: instead of
one model per SSTable, a single model can cover an entire level's
sorted run.  Fewer, larger models mean less inner-index overhead —
Figure 8 shows a >10x memory drop from 8 MiB-file models to level
models — at the cost of retraining the level model whenever a
compaction rewrites part of the level.

A :class:`LevelModel` concatenates the key arrays of the level's files
(non-overlapping, sorted) into one virtual array, trains the configured
index over it, and translates the resulting *global* position bounds
back into per-file bounds.  Because levels >= 1 are single sorted
runs, the translation is exact arithmetic over the files' cumulative
entry counts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.indexes.base import ClusteredIndex, SearchBound
from repro.indexes.registry import IndexFactory
from repro.lsm.version import FileMetaData
from repro.persist.models import ModelStore
from repro.storage.cost_model import CostModel
from repro.storage.stats import TRAIN_KEY_VISITS, Stage, Stats


class LevelModel:
    """One learned index spanning every file of one level."""

    def __init__(self, files: List[FileMetaData], index: ClusteredIndex,
                 cost: CostModel) -> None:
        self.files = files
        self.index = index
        #: PREDICTION charge of one lookup: a pure function of the built
        #: index and the cost model, both fixed for this object's life.
        self.prediction_us = index.expected_lookup_cost_us(cost)
        self.starts: List[int] = []
        total = 0
        for meta in files:
            self.starts.append(total)
            total += meta.entry_count
        self.total_entries = total

    def _split_bound(self, key: int) -> List[Tuple[int, SearchBound]]:
        """Translate ``key``'s global predicted bound into per-file bounds.

        Yields ``(file_index, file-local bound)`` pairs; a bound that
        straddles a file boundary produces one pair per file touched.
        Both the single-key and batched lookups share this translation,
        so they cannot diverge.
        """
        bound = self.index.lookup(key)
        out: List[Tuple[int, SearchBound]] = []
        first = max(0, bisect_right(self.starts, bound.lo) - 1)
        for i in range(first, len(self.files)):
            file_lo = self.starts[i]
            file_hi = file_lo + self.files[i].entry_count
            lo = max(bound.lo, file_lo)
            hi = min(bound.hi, file_hi)
            if lo < hi:
                out.append((i, SearchBound(lo - file_lo, hi - file_lo)))
            if file_hi >= bound.hi:
                break
        return out

    def lookup(self, key: int) -> List[Tuple[FileMetaData, SearchBound]]:
        """Per-file bounds covering the global predicted range for ``key``."""
        return [(self.files[i], bound)
                for i, bound in self._split_bound(key)]

    def lookup_batch(
            self, keys: Sequence[int],
    ) -> List[Tuple[FileMetaData, List[Tuple[int, SearchBound]]]]:
        """Per-file ``(key, bound)`` groups for a sorted key batch.

        Every key pays its own model evaluation, but the resulting
        per-file bounds are grouped so the caller can issue one bloom
        pass and one coalesced read per table instead of one per key.
        Groups are returned in file order; a key whose global bound
        straddles a file boundary appears in both files' groups.
        """
        groups: Dict[int, List[Tuple[int, SearchBound]]] = {}
        for key in keys:
            for i, bound in self._split_bound(key):
                groups.setdefault(i, []).append((key, bound))
        return [(self.files[i], groups[i]) for i in sorted(groups)]

    def size_bytes(self) -> int:
        """Serialized model footprint."""
        return self.index.size_bytes()


class LevelModelManager:
    """Builds, persists and caches one :class:`LevelModel` per level.

    Table builders hand over their in-memory key arrays at build time
    (`register_keys`); a level rebuild concatenates the arrays of the
    level's current files, so retraining never re-reads the device.
    Files opened by recovery have no registered array — their keys are
    pulled lazily through :meth:`Table.load_keys` (one device read per
    table, cached) only if a post-recovery rebuild actually needs them.
    Training cost is still charged through the normal stages, making
    level-model retraining visible in Figure 9's breakdown.

    Every freshly trained model is also serialized to an ``mdl-*``
    sidecar through the :class:`~repro.persist.models.ModelStore`; the
    returned sidecar name goes into the manifest edit that commits the
    retrain, and the superseded sidecar is retired only after that edit
    is durable (:meth:`drop_stale`), keeping every replayable manifest
    prefix pointed at an existing file.
    """

    def __init__(self, factory: IndexFactory, stats: Stats,
                 cost: CostModel, model_store: ModelStore) -> None:
        self.factory = factory
        self.stats = stats
        self.cost = cost
        self.model_store = model_store
        self._models: Dict[int, LevelModel] = {}
        self._keys: Dict[str, Sequence[int]] = {}
        #: level -> live sidecar name.
        self._persisted: Dict[int, str] = {}
        #: superseded sidecars awaiting deletion after the next commit.
        self._stale: List[str] = []

    # -- key bookkeeping ---------------------------------------------------

    def register_keys(self, file_name: str, keys: Sequence[int]) -> None:
        """Remember the sorted key array of a newly built table."""
        self._keys[file_name] = keys

    def forget_keys(self, file_name: str) -> None:
        """Drop the key array of a deleted table."""
        self._keys.pop(file_name, None)

    def _keys_for(self, meta: FileMetaData) -> Sequence[int]:
        keys = self._keys.get(meta.name)
        if keys is None:
            keys = meta.table.load_keys()
            self._keys[meta.name] = keys
        return keys

    # -- model lifecycle -----------------------------------------------------

    def rebuild(self, level: int, files: List[FileMetaData]) -> str:
        """Retrain the model for ``level`` over its current files.

        Returns the manifest model-pointer value for the level: the new
        sidecar's name, or ``""`` when the level emptied (invalidating
        any persisted model).
        """
        if not files:
            self._models.pop(level, None)
            self._retire(level)
            return ""
        ordered = sorted(files, key=lambda meta: meta.min_key)
        merged: List[int] = []
        for meta in ordered:
            merged.extend(self._keys_for(meta))
        index = self.factory.create()
        index.build(merged)
        self.stats.add(TRAIN_KEY_VISITS, index.train_key_visits)
        self.stats.charge(Stage.COMPACT_TRAIN,
                          self.cost.train_us(index.train_key_visits))
        payload = index.serialize()
        self.stats.charge(Stage.COMPACT_WRITE_MODEL,
                          self.cost.model_write_us(len(payload)))
        self._models[level] = LevelModel(ordered, index, self.cost)
        self._retire(level)
        name = self.model_store.save(level, payload)
        self._persisted[level] = name
        return name

    def install(self, level: int, files: List[FileMetaData],
                index: ClusteredIndex,
                sidecar: Optional[str] = None) -> None:
        """Adopt a deserialized model for ``level`` without training.

        The recovery path: ``index`` came out of a persisted sidecar
        that the manifest declared current for exactly this file set,
        so the concatenated key order it was trained over is the one
        ``files`` (sorted by key) spans.
        """
        ordered = sorted(files, key=lambda meta: meta.min_key)
        self._models[level] = LevelModel(ordered, index, self.cost)
        if sidecar is not None:
            self._persisted[level] = sidecar

    def _retire(self, level: int) -> None:
        old = self._persisted.pop(level, None)
        if old is not None:
            self._stale.append(old)

    def drop_stale(self) -> None:
        """Delete superseded sidecars (call after the edit committed)."""
        for name in self._stale:
            self.model_store.delete(name)
        self._stale.clear()

    def persisted_pointer(self, level: int) -> Optional[str]:
        """The live sidecar name for ``level`` (None when not persisted)."""
        return self._persisted.get(level)

    def model_for(self, level: int) -> Optional[LevelModel]:
        """The current model of ``level`` (None when level is empty)."""
        return self._models.get(level)

    def lookup(self, level: int,
               key: int) -> List[Tuple[FileMetaData, SearchBound]]:
        """Per-file bounds for ``key`` at ``level``; charges prediction."""
        model = self._models.get(level)
        if model is None:
            return []
        self.stats.charge(Stage.PREDICTION, model.prediction_us)
        return model.lookup(key)

    def lookup_batch(
            self, level: int, keys: Sequence[int],
    ) -> List[Tuple[FileMetaData, List[Tuple[int, SearchBound]]]]:
        """Per-file ``(key, bound)`` groups for a sorted batch at ``level``.

        Charges one prediction per key (model evaluations do not
        amortize across a batch) and returns
        :meth:`LevelModel.lookup_batch`'s file-grouped bounds.
        """
        model = self._models.get(level)
        if model is None:
            return []
        self.stats.charge(Stage.PREDICTION, model.prediction_us * len(keys))
        return model.lookup_batch(keys)

    def memory_bytes(self, level: Optional[int] = None) -> int:
        """Model memory for one level or all levels."""
        if level is not None:
            model = self._models.get(level)
            return model.size_bytes() if model else 0
        return sum(model.size_bytes() for model in self._models.values())
