"""Tests for pages, the buffer pool and the object store."""

import pytest

from repro.errors import OidError, StorageError, UnknownEntityError
from repro.physical.buffer import BufferPool
from repro.physical.pages import Page, PagedSegment, PageId
from repro.physical.storage import ObjectStore, Oid


class TestPages:
    def test_page_fills_to_capacity(self):
        page = Page(PageId("seg", 0), 2)
        page.add(1)
        page.add(2)
        assert page.is_full()
        with pytest.raises(ValueError):
            page.add(3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Page(PageId("seg", 0), 0)

    def test_segment_opens_pages_on_demand(self):
        segment = PagedSegment("seg", records_per_page=3)
        ids = [segment.append_record(i) for i in range(7)]
        assert segment.page_count() == 3
        assert ids[0] == ids[2] == PageId("seg", 0)
        assert ids[3].number == 1
        assert segment.record_count() == 7

    def test_open_new_page_forces_boundary(self):
        segment = PagedSegment("seg", records_per_page=10)
        segment.append_record(1)
        segment.open_new_page()
        page_id = segment.append_record(2)
        assert page_id.number == 1

    def test_open_new_page_noop_when_empty(self):
        segment = PagedSegment("seg", records_per_page=10)
        segment.open_new_page()
        assert segment.page_count() == 0


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity=4)
        page = PageId("seg", 0)
        assert pool.touch(page) is False
        assert pool.touch(page) is True
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 1
        assert pool.stats.hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        a, b, c = (PageId("seg", i) for i in range(3))
        pool.touch(a)
        pool.touch(b)
        pool.touch(c)  # evicts a
        assert pool.stats.evictions == 1
        assert pool.touch(a) is False  # a was evicted
        assert pool.touch(c) is True  # c still resident

    def test_touch_refreshes_recency(self):
        pool = BufferPool(capacity=2)
        a, b, c = (PageId("seg", i) for i in range(3))
        pool.touch(a)
        pool.touch(b)
        pool.touch(a)  # a is now most recent
        pool.touch(c)  # evicts b, not a
        assert pool.touch(a) is True

    def test_zero_capacity_never_caches(self):
        pool = BufferPool(capacity=0)
        page = PageId("seg", 0)
        pool.touch(page)
        assert pool.touch(page) is False
        assert pool.stats.hit_ratio == 0.0

    def test_stats_delta(self):
        pool = BufferPool(capacity=4)
        pool.touch(PageId("seg", 0))
        before = pool.stats.snapshot()
        pool.touch(PageId("seg", 1))
        delta = pool.stats.delta_since(before)
        assert delta.logical_reads == 1
        assert delta.physical_reads == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)


class TestObjectStore:
    def make_store(self):
        store = ObjectStore(BufferPool(16), records_per_page=2)
        store.create_extent("E")
        return store

    def test_insert_and_fetch(self):
        store = self.make_store()
        oid = store.insert("E", {"x": 1})
        record = store.fetch(oid)
        assert record.values["x"] == 1
        assert record.entity == "E"

    def test_fetch_charges_io_peek_does_not(self):
        store = self.make_store()
        oid = store.insert("E", {"x": 1})
        before = store.buffer.stats.logical_reads
        store.peek(oid)
        assert store.buffer.stats.logical_reads == before
        store.fetch(oid)
        assert store.buffer.stats.logical_reads == before + 1

    def test_oids_are_distinct_and_typed(self):
        store = self.make_store()
        first = store.insert("E", {})
        second = store.insert("E", {})
        assert first != second
        assert isinstance(first, Oid)

    def test_dangling_oid_raises(self):
        store = self.make_store()
        with pytest.raises(OidError):
            store.fetch(Oid(999))

    def test_scan_touches_each_page_once(self):
        store = self.make_store()
        for i in range(6):  # 3 pages at 2 records/page
            store.insert("E", {"i": i})
        before = store.buffer.stats.logical_reads
        records = list(store.scan("E"))
        assert len(records) == 6
        assert store.buffer.stats.logical_reads - before == 3

    def test_unknown_extent_raises(self):
        store = self.make_store()
        with pytest.raises(UnknownEntityError):
            store.extent("Nope")
        with pytest.raises(UnknownEntityError):
            list(store.scan("Nope"))

    def test_duplicate_extent_rejected(self):
        store = self.make_store()
        with pytest.raises(StorageError):
            store.create_extent("E")

    def test_drop_extent_removes_records(self):
        store = self.make_store()
        oid = store.insert("E", {})
        store.drop_extent("E")
        assert not store.has_extent("E")
        with pytest.raises(OidError):
            store.fetch(oid)

    def test_entity_of(self):
        store = self.make_store()
        oid = store.insert("E", {})
        assert store.entity_of(oid) == "E"

    def test_page_count_over_whole_store(self):
        store = self.make_store()
        store.create_extent("F")
        for _ in range(3):
            store.insert("E", {})
        store.insert("F", {})
        assert store.page_count() == 3  # two pages of E + one of F


class TestPageIdTuple:
    def test_hash_and_equality_follow_the_fields(self):
        assert PageId("seg", 1) == PageId("seg", 1)
        assert hash(PageId("seg", 1)) == hash(PageId("seg", 1))
        assert PageId("seg", 1) != PageId("seg", 2)
        assert len({PageId("seg", 1), PageId("seg", 1), PageId("other", 1)}) == 2
        # A named tuple: equal to the plain tuple of its fields.
        assert PageId("seg", 1) == ("seg", 1)

    def test_order_is_segment_then_number(self):
        ids = [PageId("b", 0), PageId("a", 10), PageId("a", 2)]
        assert sorted(ids) == [PageId("a", 2), PageId("a", 10), PageId("b", 0)]

    def test_fields_and_repr(self):
        page_id = PageId("seg", 3)
        assert (page_id.segment, page_id.number) == ("seg", 3)
        assert repr(page_id) == "seg#3"


class TestScanCache:
    def make_store(self, records=5):
        store = ObjectStore(BufferPool(16), records_per_page=2)
        store.create_extent("E")
        for i in range(records):
            store.insert("E", {"i": i})
        return store

    def values(self, store):
        return [record.values["i"] for record in store.scan("E")]

    def test_repeated_scans_reuse_the_grouping(self):
        store = self.make_store()
        extent = store.extent("E")
        assert extent.page_groups() is extent.page_groups()
        assert self.values(store) == self.values(store) == [0, 1, 2, 3, 4]

    def test_insert_after_a_scan_is_seen(self):
        store = self.make_store()
        assert self.values(store) == [0, 1, 2, 3, 4]
        store.insert("E", {"i": 5})
        assert self.values(store) == [0, 1, 2, 3, 4, 5]
        before = store.buffer.stats.logical_reads
        self.values(store)
        assert store.buffer.stats.logical_reads - before == 3

    def test_replace_segment_after_a_scan_is_seen(self):
        store = self.make_store(records=4)
        assert self.values(store) == [0, 1, 2, 3]
        # Re-place the records in reverse order, one per page.
        segment = PagedSegment("E.reversed", records_per_page=1)
        for record in reversed(store.extent("E").records):
            segment.append_record(int(record.oid))
        store.replace_segment({"E": segment}, {})
        assert self.values(store) == [3, 2, 1, 0]
        before = store.buffer.stats.logical_reads
        self.values(store)
        assert store.buffer.stats.logical_reads - before == 4

    def test_open_scan_keeps_its_snapshot(self):
        store = self.make_store(records=4)
        scan = store.scan("E")
        first = next(scan)
        store.insert("E", {"i": 4})
        rest = list(scan)
        assert [first.values["i"]] + [r.values["i"] for r in rest] == [0, 1, 2, 3]
        assert self.values(store) == [0, 1, 2, 3, 4]

    def test_scan_pages_touches_each_page_before_handing_it_out(self):
        store = self.make_store()
        before = store.buffer.stats.logical_reads
        pages = store.scan_pages("E")
        sizes = []
        for page in pages:
            sizes.append(len(page))
            assert store.buffer.stats.logical_reads - before == len(sizes)
        assert sizes == [2, 2, 1]
