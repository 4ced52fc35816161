"""Property test: the per-thread-lane :class:`RBMirror` behaves exactly
like the flat ``(vtid, seq)``-keyed mirror it replaced.

The reference below is that flat mirror, kept verbatim apart from the
wait queue. Random ``put``/``consume``/``release`` sequences over a few
threads and sequence numbers — duplicates, consume-before-put and
digest-less releases included — must leave every accessor, the
re-broadcast window and all four counters equal after every operation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.remote_rb import RBMirror, RemoteRecord

VTIDS = range(3)
SEQS = range(4)


class FlatMirror:
    """The tuple-keyed mirror: one flat map per kind of state."""

    def __init__(self):
        self.records = {}
        self.consumed = set()
        self.releases = {}
        self.release_digests = {}
        self.records_received = 0
        self.records_adopted = 0
        self.releases_received = 0
        self.duplicates_dropped = 0

    def put(self, vtid, seq, record):
        key = (vtid, seq)
        if key in self.records:
            self.duplicates_dropped += 1
            return
        self.records[key] = record
        self.records_received += 1

    def get(self, vtid, seq):
        return self.records.get((vtid, seq))

    def consume(self, vtid, seq):
        key = (vtid, seq)
        if key in self.records and key not in self.consumed:
            self.consumed.add(key)
            self.records_adopted += 1

    def unconsumed(self):
        return {
            key: record
            for key, record in self.records.items()
            if key not in self.consumed
        }

    def release(self, vtid, seq, verdict, digest=0):
        key = (vtid, seq)
        if key not in self.releases:
            self.releases[key] = verdict
            if digest:
                self.release_digests[key] = digest
            self.releases_received += 1

    def verdict(self, vtid, seq):
        return self.releases.get((vtid, seq))

    def verdict_digest(self, vtid, seq):
        return self.release_digests.get((vtid, seq), 0)


COUNTERS = (
    "records_received", "records_adopted", "releases_received",
    "duplicates_dropped",
)

vtids = st.sampled_from(VTIDS)
seqs = st.sampled_from(SEQS)
operations = st.one_of(
    st.tuples(st.just("put"), vtids, seqs, st.integers(-2, 2)),
    st.tuples(st.just("consume"), vtids, seqs),
    st.tuples(
        st.just("release"), vtids, seqs, st.sampled_from((0, 1)),
        st.sampled_from((0, 0xABCD, 0x1234)),
    ),
)


def assert_same(lanes: RBMirror, flat: FlatMirror) -> None:
    for vtid in VTIDS:
        for seq in SEQS:
            assert lanes.get(vtid, seq) is flat.get(vtid, seq)
            assert lanes.verdict(vtid, seq) == flat.verdict(vtid, seq)
            assert lanes.verdict_digest(vtid, seq) == flat.verdict_digest(vtid, seq)
    assert lanes.unconsumed() == flat.unconsumed()
    for counter in COUNTERS:
        assert getattr(lanes, counter) == getattr(flat, counter), counter


@given(st.lists(operations, max_size=60))
@settings(max_examples=300)
def test_lanes_match_the_flat_mirror(ops):
    lanes, flat = RBMirror(0), FlatMirror()
    for op, vtid, seq, *rest in ops:
        if op == "put":
            record = RemoteRecord(rest[0], b"r%d.%d" % (vtid, seq), "read")
            lanes.put(vtid, seq, record)
            flat.put(vtid, seq, record)
        elif op == "consume":
            lanes.consume(vtid, seq)
            flat.consume(vtid, seq)
        else:
            verdict, digest = rest
            lanes.release(vtid, seq, verdict, digest=digest)
            flat.release(vtid, seq, verdict, digest=digest)
        assert_same(lanes, flat)


def test_consumed_records_stay_for_rebroadcast():
    mirror = RBMirror(0)
    record = RemoteRecord(7, b"out", "read")
    mirror.consume(1, 0)  # before the record arrives: not adopted
    mirror.put(1, 0, record)
    assert mirror.unconsumed() == {(1, 0): record}
    mirror.consume(1, 0)
    mirror.consume(1, 0)
    assert mirror.records_adopted == 1
    assert mirror.unconsumed() == {}
    assert mirror.get(1, 0) is record
    mirror.put(1, 0, RemoteRecord(8))
    assert mirror.get(1, 0) is record
    assert mirror.duplicates_dropped == 1
