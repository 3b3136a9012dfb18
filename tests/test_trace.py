"""Tests for workload trace record/replay."""

import io

import pytest

from repro.errors import WorkloadError
from repro.indexes.registry import IndexKind
from repro.lsm.db import LSMTree
from repro.lsm.options import small_test_options
from repro.workloads.trace import read_trace, record_ycsb, write_trace
from repro.workloads.ycsb import Operation, OpKind, replay, workload


def test_roundtrip():
    ops = [Operation(OpKind.READ, 42),
           Operation(OpKind.UPDATE, 7),
           Operation(OpKind.INSERT, 1 << 60),
           Operation(OpKind.SCAN, 5, scan_length=100),
           Operation(OpKind.READ_MODIFY_WRITE, 9)]
    buffer = io.StringIO()
    assert write_trace(ops, buffer) == 5
    buffer.seek(0)
    assert list(read_trace(buffer)) == ops


def test_rejects_bad_header():
    with pytest.raises(WorkloadError):
        list(read_trace(io.StringIO("not a trace\nread 1\n")))


def test_rejects_malformed_lines():
    for body in ("read\n", "scan 1\n", "frobnicate 1\n", "read abc\n",
                 "delete 1 2\n"):
        source = io.StringIO("# repro-trace v1\n" + body)
        with pytest.raises(WorkloadError):
            list(read_trace(source))


def test_skips_comments_and_blanks():
    source = io.StringIO("# repro-trace v1\n\n# comment\nread 5\n")
    assert list(read_trace(source)) == [Operation(OpKind.READ, 5)]


def test_record_ycsb_deterministic():
    keys = list(range(100, 400))
    a, b = io.StringIO(), io.StringIO()
    record_ycsb(workload("A", keys, seed=4), 200, a)
    record_ycsb(workload("A", keys, seed=4), 200, b)
    assert a.getvalue() == b.getvalue()
    a.seek(0)
    assert len(list(read_trace(a))) == 200


def test_replay_against_database():
    db = LSMTree(small_test_options(index_kind=IndexKind.PGM))
    keys = list(range(1000, 1400))
    for key in keys:
        db.put(key, b"seed")
    buffer = io.StringIO()
    record_ycsb(workload("A", keys, seed=9), 300, buffer)
    buffer.seek(0)
    counts = replay(db, read_trace(buffer))
    assert sum(counts.values()) == 300
    assert counts.get("read", 0) > 0
    assert counts.get("update", 0) > 0
    db.close()


def test_replay_delete_verb():
    db = LSMTree(small_test_options())
    db.put(5, b"x")
    source = io.StringIO("# repro-trace v1\ndelete 5\nread 5\n")
    counts = replay(db, read_trace(source))
    assert counts == {"delete": 1, "read": 1}
    assert db.get(5) is None
    db.close()


def test_identical_trace_identical_simulated_cost():
    """The point of traces: two replays cost exactly the same."""
    keys = list(range(2000, 2600))
    buffer = io.StringIO()
    record_ycsb(workload("B", keys, seed=3), 400, buffer)
    totals = []
    for _ in range(2):
        db = LSMTree(small_test_options(index_kind=IndexKind.PLR))
        for key in keys:
            db.put(key, b"seed")
        db.flush()
        before = db.stats.total_time()
        buffer.seek(0)
        replay(db, read_trace(buffer))
        totals.append(db.stats.total_time() - before)
        db.close()
    assert totals[0] == pytest.approx(totals[1])
