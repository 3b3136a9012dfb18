"""Tests for the shared index-base helpers and error types."""

import repro
from repro.errors import (
    BenchmarkError,
    CorruptionError,
    DatabaseClosedError,
    FileNotFoundInDeviceError,
    IndexBuildError,
    IndexLookupError,
    InvalidOptionError,
    ReproError,
    StorageError,
    WorkloadError,
)
from repro.indexes.base import (
    SearchBound,
    Segment,
    floor_index,
    segments_to_bound,
)


def test_error_hierarchy():
    for exc in (StorageError, CorruptionError, IndexBuildError,
                IndexLookupError, InvalidOptionError, DatabaseClosedError,
                WorkloadError, BenchmarkError, FileNotFoundInDeviceError):
        assert issubclass(exc, ReproError)
    err = FileNotFoundInDeviceError("f1")
    assert err.name == "f1"
    assert "f1" in str(err)


def test_search_bound_basics():
    bound = SearchBound(5, 9)
    assert bound.width == 4
    assert bound.contains(5) and bound.contains(8)
    assert not bound.contains(9) and not bound.contains(4)
    clamped = SearchBound(-3, 100).clamped(10)
    assert (clamped.lo, clamped.hi) == (0, 10)
    empty = SearchBound(20, 30).clamped(10)
    assert empty.width == 0


def test_floor_index():
    keys = [10, 20, 30]
    assert floor_index(keys, 5) == 0     # clamped below
    assert floor_index(keys, 10) == 0
    assert floor_index(keys, 25) == 1
    assert floor_index(keys, 99) == 2


def test_segment_predict_is_offset_anchored():
    segment = Segment(first_key=1 << 62, slope=0.5, intercept=100.0,
                      start=100, length=10)
    assert segment.predict(1 << 62) == 100.0
    assert segment.predict((1 << 62) + 8) == 104.0


def test_segments_to_bound_clamps_into_segment():
    segment = Segment(first_key=1000, slope=1.0, intercept=50.0,
                      start=50, length=10)
    bound = segments_to_bound(segment, 1000, epsilon=3)
    assert bound.lo >= 50 and bound.hi <= 60
    assert bound.contains(50)
    # Prediction far beyond the segment end clamps to its edge.
    far = segments_to_bound(segment, 10_000, epsilon=3)
    assert far.hi <= 60
    assert far.width > 0


def test_package_exports():
    assert repro.__version__
    assert repro.IndexKind.PGM.value == "PGM"
    assert callable(repro.LSMTree)
    assert len(repro.ALL_KINDS) == 7
