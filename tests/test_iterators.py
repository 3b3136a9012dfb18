"""Tests for merging iterators and user-visible version collapsing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.iterators import DBIterator, KVIterator, MergingIterator
from repro.lsm.record import Record, make_tombstone, make_value


class ListIterator(KVIterator):
    """Reference iterator over an in-memory, pre-sorted record list."""

    def __init__(self, records) -> None:
        self._records = records
        self._pos = len(records)

    def seek_to_first(self) -> None:
        self._pos = 0

    def seek(self, key: int) -> None:
        lo, hi = 0, len(self._records)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._records[mid].key < key:
                lo = mid + 1
            else:
                hi = mid
        self._pos = lo

    def valid(self) -> bool:
        return 0 <= self._pos < len(self._records)

    def key(self) -> int:
        return self._records[self._pos].key

    def seq(self) -> int:
        return self._records[self._pos].seq

    def record(self) -> Record:
        return self._records[self._pos]

    def advance(self) -> None:
        self._pos += 1


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
    cursor = DBIterator(_list_iter(records))
    cursor.seek_to_first()
    assert cursor.take(10) == [(1, b"a"), (3, b"c")]


def test_db_iterator_takes_newest_version():
    records = [make_value(7, 9, b"new"), make_value(7, 2, b"old")]
    cursor = DBIterator(_list_iter(records))
    cursor.seek_to_first()
    assert cursor.take(10) == [(7, b"new")]


def test_db_iterator_resurrected_key():
    """Delete then re-insert: the newest value wins."""
    records = [make_value(4, 10, b"back"), make_tombstone(4, 6),
               make_value(4, 2, b"orig")]
    cursor = DBIterator(_list_iter(records))
    cursor.seek_to_first()
    assert cursor.take(10) == [(4, b"back")]


def test_db_iterator_seek_lands_on_live_key():
    records = [make_value(1, 1, b"a"), make_tombstone(5, 2),
               make_value(9, 3, b"c")]
    cursor = DBIterator(_list_iter(records))
    cursor.seek(2)
    assert cursor.key() == 9


def test_db_iterator_take_limit():
    records = [make_value(k, 1, b"") for k in range(50)]
    cursor = DBIterator(_list_iter(records))
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
    cursor = DBIterator(_list_iter(records))
    cursor.seek_to_first()
    assert cursor.take(1000) == sorted(expected.items())


# -- header reads vs. materialisation ---------------------------------------


class _CountingIterator(ListIterator):
    """A list iterator that counts how often a record is materialised."""

    def __init__(self, records):
        super().__init__(records)
        self.materialised = 0

    def record(self):
        self.materialised += 1
        return super().record()


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


def test_db_iterator_materialises_one_record_per_key_it_inspects():
    children = _versions()
    cursor = DBIterator(MergingIterator(children))
    cursor.seek_to_first()
    assert cursor.take(100) == [
        (1, b"m1"), (3, b"o3"), (4, b"o4"), (5, b"n5"), (6, b"o6"),
        (7, b"o7"), (8, b"o8"), (9, b"n9"), (10, b"o10")]
    # Ten distinct keys, one of them (2) hidden by its tombstone.
    assert sum(child.materialised for child in children) == 10


def test_seq_defaults_to_the_record_for_iterators_without_headers():
    from repro.lsm.iterators import KVIterator

    class Bare(ListIterator):
        seq = KVIterator.seq

    it = Bare([make_value(4, 17, b"x")])
    it.seek_to_first()
    assert it.seq() == 17
