"""Outside-in span tracing for the benchmark.

The benchmark never edits the program: it replaces public methods on the
live objects with instance-attribute wrappers (:meth:`SpanRecorder.wrap`).
Each call becomes one span — name, start and end ``perf_counter_ns``,
parent span, query id and thread — appended to its thread's lane, one
flat ``array`` of integers, so recording allocates no objects the
garbage collector has to track.  Spans stay in memory until :meth:`save`.

Span stacks are per thread: under the concurrency kernel each query task
runs on its own OS thread, and a span's parent is always the innermost
open span *of the same thread*.  A layer's self time is its span time
minus the time of its child spans (:func:`self_times`).

Some seams mark time that belongs to no layer: ``Kernel.serve`` blocks a
task while the kernel runs other tasks, so a span named in ``blocking``
is subtracted from its parent but charged to nothing.  What remains of
the serving wall after every layer's self time is the residual
(:func:`breakdown`); under the kernel it is the kernel's own cost.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

__all__ = ["SpanRecorder", "self_times", "breakdown", "NO_PARENT"]

NO_PARENT = -1
_NO_QID = -1
NAME, PARENT, QID, END, START = range(5)
STRIDE = 5


class _Lane:
    """The spans recorded on one thread.

    ``buf`` holds :data:`STRIDE` integers per span, at offsets
    ``NAME``, ``PARENT``, ``QID``, ``END`` and ``START``; a span's index
    is its offset in ``buf`` divided by the stride.
    """

    __slots__ = ("thread", "buf", "stack", "amount")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.buf = array("q")
        #: ``buf`` offsets of this thread's open spans, innermost last
        self.stack: list[int] = []
        #: name id -> summed measure (bytes, postings) of its calls
        self.amount: dict[int, int] = {}

    def columns(self) -> tuple:
        """``(name_ids, start_ns, end_ns, parents)`` with parents as
        span indices (:data:`NO_PARENT` for a root)."""
        buf = self.buf
        parents = [p // STRIDE if p >= 0 else NO_PARENT
                   for p in buf[PARENT::STRIDE]]
        return (buf[NAME::STRIDE], buf[START::STRIDE], buf[END::STRIDE],
                parents)


class SpanRecorder:
    """Records spans at wrapped seams; one instance per traced run."""

    def __init__(self, clock_ns=time.perf_counter_ns) -> None:
        self._clock_ns = clock_ns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.lanes: list[_Lane] = []
        self._local = threading.local()
        self._lanes_lock = threading.Lock()
        self._qids = itertools.count()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _new_lane(self) -> _Lane:
        lane = self._local.lane = _Lane(threading.get_ident())
        with self._lanes_lock:
            self.lanes.append(lane)
        return lane

    def wrap(self, obj, attr: str, name: str, *, root: bool = False,
             measure=None) -> None:
        """Trace every call of ``obj.attr`` as a span called ``name``.

        ``root`` spans start a new query id; other spans inherit their
        parent's.  ``measure(args, result)`` returns an integer summed
        per name (bytes moved, postings planned).
        """
        fn = getattr(obj, attr)
        nid = self.name_id(name)
        local = self._local
        new_lane = self._new_lane
        clock_ns = self._clock_ns
        qids = self._qids

        def traced(*args, **kwargs):
            try:
                lane = local.lane
            except AttributeError:
                lane = new_lane()
            stack = lane.stack
            buf = lane.buf
            i = len(buf)
            if stack:
                parent = stack[-1]
                qid = next(qids) if root else buf[parent + QID]
            else:
                parent = NO_PARENT
                qid = next(qids) if root else _NO_QID
            buf.extend((nid, parent, qid, 0, clock_ns()))
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[i + END] = clock_ns()
                stack.pop()
            if measure is not None:
                lane.amount[nid] = lane.amount.get(nid, 0) + measure(args, result)
            return result

        setattr(obj, attr, traced)

    def span_count(self) -> int:
        return sum(len(lane.buf) for lane in self.lanes) // STRIDE

    # -- output ------------------------------------------------------------

    def amounts(self) -> dict[str, int]:
        """Summed ``measure`` values per span name, over all threads."""
        out: dict[str, int] = {}
        for lane in self.lanes:
            for nid, v in lane.amount.items():
                out[self.names[nid]] = out.get(self.names[nid], 0) + v
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` as a compressed ``.npz``: one
        ``spans`` row per span (name, parent, qid, end, start, lane), a
        parent being the row offset within its lane."""
        import numpy as np

        rows = [np.frombuffer(lane.buf, dtype=np.int64).reshape(-1, STRIDE)
                for lane in self.lanes]
        lane_ix = [np.full((len(r), 1), k, dtype=np.int64)
                   for k, r in enumerate(rows)]
        spans = (np.hstack([np.vstack(rows), np.vstack(lane_ix)]) if rows
                 else np.zeros((0, STRIDE + 1), dtype=np.int64))
        parent = spans[:, PARENT]
        spans[:, PARENT] = np.where(parent >= 0, parent // STRIDE, NO_PARENT)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), spans=spans,
            threads=np.array([lane.thread for lane in self.lanes],
                             dtype=np.uint64))


def self_times(names, lanes, blocking=()) -> dict[str, list[int]]:
    """Per span name, ``[calls, self_ns]`` summed over every lane.

    ``lanes`` is a sequence of ``(name_ids, start_ns, end_ns, parents)``
    column tuples, one per thread; a parent index refers to the same
    lane.  A span's self time is its duration minus its children's.
    Names in ``blocking`` are subtracted from their parents like any
    child, but their own self time is reported as ``[calls, 0]``: a
    blocked task charges no layer.
    """
    blocked = {i for i, n in enumerate(names) if n in blocking}
    totals = [[0, 0] for _ in names]
    for name_ids, start, end, parents in lanes:
        n = len(name_ids)
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p != NO_PARENT:
                child[p] += end[i] - start[i]
        for i in range(n):
            t = totals[name_ids[i]]
            t[0] += 1
            if name_ids[i] not in blocked:
                t[1] += end[i] - start[i] - child[i]
    return {names[k]: t for k, t in enumerate(totals)}


def breakdown(recorder: SpanRecorder, wall_ns: int,
              blocking=()) -> tuple[dict[str, list[int]], int]:
    """Layer self times for one traced run, and the residual.

    Returns ``(self_times, residual_ns)`` where ``residual_ns`` is
    ``wall_ns`` minus every layer's self time: the cost of whatever the
    serving wall spent outside all wrapped seams.
    """
    times = self_times(
        recorder.names,
        [lane.columns() for lane in recorder.lanes],
        blocking=blocking)
    attributed = sum(t[1] for t in times.values())
    return times, wall_ns - attributed
