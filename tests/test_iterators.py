"""Tests for the merge and user-visible version collapsing.

The heap merge (``merge_reference.MergingIterator``) is the reference
order; ``RunMerge`` must emit the same entries, a run at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from merge_reference import ListIterator, MergingIterator
from repro.lsm.iterators import DBIterator, RunMerge
from repro.lsm.record import make_tombstone, make_value


def drain(it):
    """Every remaining record of ``it``, in order."""
    out = []
    while it.valid():
        out.append(it.record())
        it.advance()
    return out


def _list_iter(records):
    return ListIterator(sorted(records, key=lambda r: (r.key, -r.seq)))


def test_list_iterator_seek():
    it = _list_iter([make_value(k, 1, b"") for k in (10, 20, 30)])
    it.seek(15)
    assert it.key() == 20
    it.seek(30)
    assert it.key() == 30
    it.seek(31)
    assert not it.valid()
    it.seek_to_first()
    assert it.key() == 10


def test_merging_iterator_interleaves_sorted():
    a = _list_iter([make_value(k, 1, b"a") for k in (1, 4, 7)])
    b = _list_iter([make_value(k, 2, b"b") for k in (2, 4, 8)])
    merged = MergingIterator([a, b])
    merged.seek_to_first()
    out = [(r.key, r.seq) for r in drain(merged)]
    assert out == [(1, 1), (2, 2), (4, 2), (4, 1), (7, 1), (8, 2)]


def test_merging_iterator_newest_first_within_key():
    old = _list_iter([make_value(5, 1, b"old")])
    new = _list_iter([make_value(5, 9, b"new")])
    merged = MergingIterator([old, new])
    merged.seek_to_first()
    assert merged.record().value == b"new"
    merged.advance()
    assert merged.record().value == b"old"


def test_merging_iterator_seek():
    a = _list_iter([make_value(k, 1, b"") for k in range(0, 100, 10)])
    b = _list_iter([make_value(k, 2, b"") for k in range(5, 100, 10)])
    merged = MergingIterator([a, b])
    merged.seek(42)
    assert merged.key() == 45


def test_db_iterator_hides_tombstones():
    records = [make_value(1, 1, b"a"), make_tombstone(2, 5),
               make_value(2, 3, b"dead"), make_value(3, 2, b"c")]
    cursor = DBIterator([_list_iter(records)])
    cursor.seek_to_first()
    assert cursor.take(10) == [(1, b"a"), (3, b"c")]


def test_db_iterator_takes_newest_version():
    records = [make_value(7, 9, b"new"), make_value(7, 2, b"old")]
    cursor = DBIterator([_list_iter(records)])
    cursor.seek_to_first()
    assert cursor.take(10) == [(7, b"new")]


def test_db_iterator_resurrected_key():
    """Delete then re-insert: the newest value wins."""
    records = [make_value(4, 10, b"back"), make_tombstone(4, 6),
               make_value(4, 2, b"orig")]
    cursor = DBIterator([_list_iter(records)])
    cursor.seek_to_first()
    assert cursor.take(10) == [(4, b"back")]


def test_db_iterator_seek_lands_on_live_key():
    records = [make_value(1, 1, b"a"), make_tombstone(5, 2),
               make_value(9, 3, b"c")]
    cursor = DBIterator([_list_iter(records)])
    cursor.seek(2)
    assert cursor.key() == 9


def test_db_iterator_take_limit():
    records = [make_value(k, 1, b"") for k in range(50)]
    cursor = DBIterator([_list_iter(records)])
    cursor.seek_to_first()
    assert len(cursor.take(7)) == 7
    assert cursor.key() == 7  # cursor advanced past the taken entries


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=200),
                         max_size=50), min_size=1, max_size=5))
def test_property_merge_equals_sorted_union(sources):
    iterators = []
    seq = 0
    everything = []
    for source in sources:
        records = []
        for key in sorted(set(source)):
            seq += 1
            record = make_value(key, seq, b"%d" % seq)
            records.append(record)
            everything.append(record)
        iterators.append(_list_iter(records))
    merged = MergingIterator(iterators)
    merged.seek_to_first()
    out = [(r.key, r.seq) for r in drain(merged)]
    assert out == sorted(((r.key, r.seq) for r in everything),
                         key=lambda pair: (pair[0], -pair[1]))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=100),
                       st.integers(min_value=1, max_value=3),
                       min_size=1, max_size=40))
def test_property_db_iterator_newest_wins(key_versions):
    seq = 0
    records = []
    expected = {}
    for key, versions in key_versions.items():
        for _ in range(versions):
            seq += 1
            records.append(make_value(key, seq, b"s%d" % seq))
            expected[key] = b"s%d" % seq
    cursor = DBIterator([_list_iter(records)])
    cursor.seek_to_first()
    assert cursor.take(1000) == sorted(expected.items())


# -- header reads vs. materialisation ---------------------------------------


class _CountingIterator(ListIterator):
    """A list iterator that counts how often a record is materialised."""

    def __init__(self, records):
        super().__init__(records)
        self.materialised = 0

    def row(self, index):
        self.materialised += 1
        return super().row(index)


def _versions():
    """Three sources, overlapping keys, tombstones on top of values."""
    newest = [make_tombstone(2, 30), make_value(5, 31, b"n5"),
              make_value(9, 32, b"n9")]
    middle = [make_value(1, 20, b"m1"), make_value(2, 21, b"m2"),
              make_tombstone(9, 22)]
    oldest = [make_value(k, k, b"o%d" % k) for k in range(1, 11)]
    return [_CountingIterator(sorted(source, key=lambda r: r.key))
            for source in (newest, middle, oldest)]


def test_merge_orders_headers_without_materialising_records():
    children = _versions()
    merged = MergingIterator(children)
    merged.seek_to_first()
    walked = []
    while merged.valid():
        walked.append((merged.key(), merged.seq()))
        top = merged.top()
        assert (top.key(), top.seq()) == walked[-1]
        merged.advance()
    assert walked == sorted(walked, key=lambda pair: (pair[0], -pair[1]))
    assert len(walked) == 16
    assert [child.materialised for child in children] == [0, 0, 0]
    merged.seek(9)
    assert (merged.key(), merged.seq()) == (9, 32)
    assert merged.record() == make_value(9, 32, b"n9")
    assert sum(child.materialised for child in children) == 1


def test_db_iterator_materialises_one_record_per_row_it_returns():
    children = _versions()
    cursor = DBIterator(children)
    cursor.seek_to_first()
    assert cursor.take(100) == [
        (1, b"m1"), (3, b"o3"), (4, b"o4"), (5, b"n5"), (6, b"o6"),
        (7, b"o7"), (8, b"o8"), (9, b"n9"), (10, b"o10")]
    # Ten distinct keys, one of them (2) hidden by its tombstone: kinds
    # and versions are read off the header columns.
    assert sum(child.materialised for child in children) == 9


def test_single_entry_views_read_the_header_columns():
    it = ListIterator([make_tombstone(4, 17), make_value(6, 3, b"x")])
    it.seek_to_first()
    assert (it.key(), it.seq(), it.kind()) == (4, 17, 1)
    it.advance()
    assert (it.key(), it.seq(), it.kind()) == (6, 3, 0)
    assert it.record() == make_value(6, 3, b"x")
    it.advance()
    assert not it.valid()


# -- runs ---------------------------------------------------------------------


def _runs(merge):
    """Every run of ``merge`` as ``(child index, [keys])``."""
    out = []
    run = merge.next_run()
    while run is not None:
        child, end = run
        out.append((merge.children.index(child),
                    list(child.keys[child.head:end])))
        run = merge.next_run(end)
    return out


def test_a_run_ends_at_the_runner_up_head_or_the_block_end():
    a = ListIterator([make_value(k, 1, b"") for k in (1, 2, 3, 7, 8)],
                     block=4)
    b = ListIterator([make_value(k, 2, b"") for k in (3, 5, 9)])
    merge = RunMerge([a, b])
    merge.seek_to_first()
    # Key 3 is in both: b's is newer (seq 2), so a's run stops before
    # it; a's block [1, 2, 3, 7] ends a run, then 8 comes from a refill.
    assert _runs(merge) == [(0, [1, 2]), (1, [3]), (0, [3]), (1, [5]),
                            (0, [7]), (0, [8]), (1, [9])]
    assert a.fetches == 2


def test_equal_key_and_seq_go_to_the_lower_rank():
    a = ListIterator([make_value(4, 5, b"a")])
    b = ListIterator([make_value(4, 5, b"b"), make_value(6, 1, b"")])
    merge = RunMerge([b, a])
    merge.seek_to_first()
    assert _runs(merge) == [(0, [4]), (1, [4]), (0, [6])]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=60),
                         max_size=30), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=70))
def test_property_runs_are_the_heap_order(sources, block, start):
    """Concatenated runs are the heap merge's entry order, and each child
    fetches its blocks at the same points of that order."""
    def children():
        out, seq = [], 0
        for source in sources:
            records = []
            for key in sorted(set(source)):
                seq += 1
                records.append(make_value(key, seq % 7, b"%d" % seq))
            out.append(ListIterator(records, block=block))
        return out

    heap_children = children()
    heap = MergingIterator(heap_children)
    heap.seek(start)
    want = []
    while heap.valid():
        top = heap.top()
        want.append((heap.key(), heap.seq(), heap_children.index(top),
                     [child.fetches for child in heap_children]))
        heap.advance()
    run_children = children()
    merge = RunMerge(run_children)
    merge.seek(start)
    got = []
    run = merge.next_run()
    while run is not None:
        child, end = run
        rank = run_children.index(child)
        fetches = [c.fetches for c in run_children]
        for at in range(child.head, end):
            got.append((child.keys[at], child.metas[at] >> 8, rank,
                        list(fetches)))
        run = merge.next_run(end)
    assert got == want
    assert [c.fetches for c in run_children] == [
        c.fetches for c in heap_children]
