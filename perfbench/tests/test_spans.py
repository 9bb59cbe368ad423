"""Self time from nested and cross-process spans."""

import asyncio

import pytest

import spans as sp


def span(name, start, end, parent=None, rid=None, label=""):
    return [name, start, end, parent, rid, label]


def test_self_time_of_nested_spans():
    spans = [
        span("run", 0.0, 10.0),
        span("construct", 1.0, 5.0, parent=0),
        span("mmap", 1.5, 2.5, parent=1),
        span("mmap", 3.0, 4.0, parent=1),
        span("translate", 6.0, 9.0, parent=0),
    ]
    assert sp.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 3.0])
    rows = sp.totals(spans, sp.self_times(spans))
    assert rows["mmap"] == {"calls": 2, "s": 2.0}


def test_cross_process_join_by_request_id():
    # Front-end spans carry the client's request id; the shard's carry the
    # tenant and seq, and come back from JSON with lists for tuples.
    front = [span("frontend", 0.0, 10.0, rid=("t0", 1)),
             span("frontend", 2.0, 9.0, rid=("t1", 1)),
             span("frontend", 3.0, 4.0, rid=("t0", 2))]
    shard = [span("shard", 1.0, 7.0, rid=["t0", 1]),
             span("shard", 7.0, 8.5, rid=["t1", 1])]
    joined = sp.join_by_rid(front, shard)
    assert sorted(joined) == [0, 1]
    assert sp.self_time(front[0], [joined[0]]) == pytest.approx(4.0)
    assert sp.self_time(front[1], [joined[1]]) == pytest.approx(5.5)
    # Any length function: e.g. calibrated seconds at half speed.
    assert sp.self_time(front[0], [joined[0]], lambda s: 2 * sp.duration(s)) == pytest.approx(8.0)


def test_tracer_records_parents_and_labels():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    tracer = sp.Tracer()
    tracer.wrap(Layer, "outer", "outer", label=lambda a, k, r: f"r{r}")
    tracer.wrap(Layer, "inner", "inner", rid=lambda a, k: ("req", a[1]))
    assert Layer().outer(3) == 7
    outer, inner = tracer.spans
    assert outer[sp.PARENT] is None and inner[sp.PARENT] == 0
    assert outer[sp.LABEL] == "r7" and inner[sp.RID] == ("req", 3)
    assert outer[sp.START] <= inner[sp.START] <= inner[sp.END] <= outer[sp.END]


def test_async_spans_overlap_and_join_by_rid():
    class Client:
        async def call(self, op, tenant=None):
            await asyncio.sleep(0.01)
            return op

    tracer = sp.Tracer()
    tracer.wrap_async(Client, "call", "client",
                      rid=lambda a, k: (k.get("tenant"), a[1]), label=lambda a, k: a[1])

    async def main():
        c = Client()
        return await asyncio.gather(c.call("a", tenant="t"), c.call("b", tenant="t"))

    assert asyncio.run(main()) == ["a", "b"]
    a, b = tracer.spans
    assert a[sp.PARENT] is None and b[sp.PARENT] is None
    assert a[sp.START] < b[sp.END] and b[sp.START] < a[sp.END]
    assert {a[sp.RID], b[sp.RID]} == {("t", "a"), ("t", "b")}
