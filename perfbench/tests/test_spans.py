"""Self-time arithmetic and the span recorder."""

import threading

import numpy as np
import pytest

from spans import NO_PARENT, SpanRecorder, breakdown, self_times


class FakeNs:
    """A settable nanosecond clock."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_nested_self_times():
    # a [0,100] > b [10,40], c [50,70] > d [55,60]
    names = ["a", "b", "c", "d"]
    lane = ([0, 1, 2, 3], [0, 10, 50, 55], [100, 40, 70, 60],
            [NO_PARENT, 0, 0, 2])
    t = self_times(names, [lane])
    assert t == {"a": [1, 50], "b": [1, 30], "c": [1, 15], "d": [1, 5]}


def test_self_times_sum_over_threads_and_calls():
    names = ["q", "io"]
    main = ([0, 1, 1], [0, 2, 6], [10, 5, 8], [NO_PARENT, 0, 0])
    other = ([0, 1], [100, 101], [104, 103], [NO_PARENT, 0])
    t = self_times(names, [main, other])
    # q: (10 - 3 - 2) + (4 - 2); io: 3 + 2 + 2
    assert t == {"q": [2, 7], "io": [3, 7]}


def test_blocking_span_charges_nobody():
    names = ["q", "serve"]
    lane = ([0, 1], [0, 2], [10, 9], [NO_PARENT, 0])
    t = self_times(names, [lane], blocking=("serve",))
    assert t == {"q": [1, 3], "serve": [1, 0]}


class Layer:
    def __init__(self, clock: FakeNs, cost: int, inner=None) -> None:
        self.clock = clock
        self.cost = cost
        self.inner = inner

    def call(self, nbytes=0):
        self.clock.now += self.cost
        if self.inner is not None:
            self.inner.call(nbytes)
        return nbytes


def test_recorder_nesting_qids_and_measure():
    clock = FakeNs()
    leaf = Layer(clock, 3)
    top = Layer(clock, 5, inner=leaf)
    rec = SpanRecorder(clock_ns=clock)
    rec.wrap(top, "call", "top", root=True)
    rec.wrap(leaf, "call", "leaf", measure=lambda args, result: result)
    for n in (10, 20):
        top.call(n)
    times, residual = breakdown(rec, wall_ns=clock.now + 4)
    assert times == {"top": [2, 10], "leaf": [2, 6]}
    assert residual == 4
    assert rec.amounts() == {"leaf": 30}
    (lane,) = rec.lanes
    names, starts, ends, parents = lane.columns()
    assert list(parents) == [NO_PARENT, 0, NO_PARENT, 2]
    assert list(lane.buf[2::5]) == [0, 0, 1, 1]  # query ids


def test_recorder_closes_span_on_exception():
    clock = FakeNs()

    class Boom:
        def call(self):
            clock.now += 2
            raise ValueError("boom")

    obj = Boom()
    rec = SpanRecorder(clock_ns=clock)
    rec.wrap(obj, "call", "boom")
    with pytest.raises(ValueError):
        obj.call()
    (lane,) = rec.lanes
    assert lane.stack == []
    assert breakdown(rec, wall_ns=2)[0] == {"boom": [1, 2]}


def test_recorder_keeps_one_lane_per_thread():
    rec = SpanRecorder()
    leaf = Layer(FakeNs(), 0)
    rec.wrap(leaf, "call", "leaf", root=True)
    barrier = threading.Barrier(3, timeout=10)

    def work():
        barrier.wait()
        for _ in range(500):
            leaf.call()

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(rec.lanes) == 3
    assert [len(lane.buf) // 5 for lane in rec.lanes] == [500, 500, 500]
    assert all(lane.stack == [] for lane in rec.lanes)
    qids = sorted(q for lane in rec.lanes for q in lane.buf[2::5])
    assert qids == list(range(1500))


def test_save_round_trip(tmp_path):
    clock = FakeNs()
    top = Layer(clock, 5, inner=Layer(clock, 3))
    rec = SpanRecorder(clock_ns=clock)
    rec.wrap(top, "call", "top", root=True)
    rec.wrap(top.inner, "call", "leaf")
    top.call()
    path = tmp_path / "spans.npz"
    rec.save(path)
    data = np.load(path)
    assert list(data["names"]) == ["top", "leaf"]
    # columns: name, parent, qid, end, start, lane
    assert data["spans"].tolist() == [[0, NO_PARENT, 0, 8, 0, 0],
                                      [1, 0, 0, 8, 5, 0]]
